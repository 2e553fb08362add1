"""Assembling the product complex: golden matrices, structural checks on
random inputs, rank accounting, projections, and the degenerate shapes."""

import json
from pathlib import Path
from random import Random

import pytest

from koszul_lift.algebra import GradedRing, PolyMatrix, matrix_to_json
from koszul_lift.assembly import (
    ProductComplex,
    assemble,
    epsilon_C,
    minimality_and_lifting_report,
    permute_matrix,
    rank_report,
    render_differential,
    reverse_block_order,
    vandermonde_identity,
)
from koszul_lift.builtin_examples import (
    lifted_koszul_pair,
    paper_5_2,
    periodic_factorization,
)
from koszul_lift.complexes import (
    FreeComplex,
    check_complex,
    homology_dims,
    is_minimal,
    lift_to_Q,
    minimize,
    reduce_to_R,
)
from koszul_lift.errors import InvalidInputError, LevelTooLowError
from koszul_lift.fields import GF, QQ
from koszul_lift.homotopy import HomotopyFamily, solve_homotopies
from koszul_lift.koszul import koszul_complex
from koszul_lift.samples import (
    random_finite_complex,
    random_regular_ring,
    random_resolved_complex,
)

import math

from oracles import finite_complex_cases, minimize_by_blocks

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _strs(mat):
    return [[str(p) for p in row] for row in mat.rows]


def _displayed(P, n):
    return _strs(
        permute_matrix(
            P.complex.diffs[n],
            reverse_block_order(P, n - 1),
            reverse_block_order(P, n),
        )
    )


def _golden_product():
    _, cbar, expected = paper_5_2()
    F = lift_to_Q(cbar)
    return cbar, assemble(F, solve_homotopies(F, 1)), expected


def test_golden_displayed_matrices():
    cbar, P, expected = _golden_product()
    assert P.complex.window == (-1, 2)
    for n, rows in expected["product_displayed"].items():
        assert _displayed(P, int(n)) == rows
    # spot check the canonical (unpermuted) block layout too: the top-left
    # block of d_2 is the lifted differential A
    d2 = P.complex.diffs[2]
    assert _strs(d2)[0][:3] == ["x", "0", "-y"]


def test_golden_epsilon():
    cbar, P, expected = _golden_product()
    eps = epsilon_C(P, cbar)
    assert eps.ok and eps.first_failure is None
    for n, rows in expected["epsilon_displayed"].items():
        cols = reverse_block_order(P, int(n))
        mat = eps.maps[int(n)]
        disp = [[str(mat.rows[i][j]) for j in cols] for i in range(mat.nrows)]
        assert disp == rows
    # canonical form: identity block on the e_() columns, zero elsewhere
    for n, mat in eps.maps.items():
        blk = P.blocks[n][0]
        assert blk.subset == ()
        for i in range(mat.nrows):
            for j in range(mat.ncols):
                e = mat.rows[i][j]
                if j == blk.offset + i:
                    assert str(e) == "1"
                else:
                    assert e.is_zero()


def test_golden_squares_to_zero_and_ranks():
    cbar, P, _ = _golden_product()
    assert check_complex(P.complex).ok
    rep = rank_report(P)
    assert rep.ok and rep.blockwise_ok
    got = {p.position: p.actual for p in rep.per_position}
    assert got == {-1: 3, 0: 2, 1: 3, 2: 5}


def test_assemble_level_too_low():
    rng = Random(502)
    ring = random_regular_ring(rng, QQ, 2, 2)
    cbar = random_resolved_complex(rng, ring, 3)
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, 1)
    with pytest.raises(LevelTooLowError):
        assemble(F, fam)


def test_window_too_short_for_view():
    # a windowed complex must have length >= c for the product to have any
    # fully determined position
    _, cbar, _ = paper_5_2()
    ring = cbar.ring
    from koszul_lift.complexes import FreeComplex

    short = FreeComplex(
        ring,
        "R",
        (0, 0),
        {0: (0,)},
        {},
        support="window",
    )
    F = lift_to_Q(short)
    fam = solve_homotopies(F, 0)
    with pytest.raises(InvalidInputError):
        assemble(F, solve_homotopies(F, 1))
    del fam


def test_randomized_assemblies_square_to_zero():
    rng = Random(503)
    field = GF(32003)
    for _ in range(8):
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(3, nvars))
        ring = random_regular_ring(rng, field, nvars, c)
        cbar = random_resolved_complex(rng, ring, rng.randint(2, 4))
        F = lift_to_Q(cbar)
        fam = solve_homotopies(F, c)
        P = assemble(F, fam)
        assert check_complex(P.complex).ok
        assert rank_report(P).ok
        assert epsilon_C(P, cbar).ok


def test_block_bookkeeping():
    cbar, P, _ = _golden_product()
    for n in P.complex.positions():
        offset = 0
        for blk in P.blocks[n]:
            assert blk.offset == offset
            assert blk.rank == cbar.known_rank(blk.f_position) > 0
            assert blk.f_position + len(blk.subset) == n
            offset += blk.rank
        assert offset == len(P.complex.twists[n])
        tags = P.gen_tags(n)
        assert len(tags) == offset


def test_product_twists_follow_blocks():
    # generator twist = F twist + sum of deg f_i over the Koszul subset
    rng = Random(504)
    ring = random_regular_ring(rng, QQ, 2, 2)
    cbar = random_resolved_complex(rng, ring, 3)
    F = lift_to_Q(cbar)
    P = assemble(F, solve_homotopies(F, 2))
    for n in P.complex.positions():
        k = 0
        for blk in P.blocks[n]:
            drop = sum(ring.seq_degrees[i - 1] for i in blk.subset)
            for g in range(blk.rank):
                expected = F.twists[blk.f_position][g] + drop
                assert P.complex.twists[n][k] == expected
                k += 1


def test_homology_preservation_on_golden():
    cbar, P, _ = _golden_product()
    hp = homology_dims(P.complex, [0, 1], 8)
    hc = homology_dims(cbar, [0, 1], 8)
    # the two sides enumerate degrees from their own lowest twist; compare
    # the union with missing keys read as zero
    for key in set(hp) | set(hc):
        assert hp.get(key, 0) == hc.get(key, 0)


def test_vandermonde_identity_range():
    for c in range(0, 13):
        for d in range(c, 13):
            for n in range(0, 13):
                rep = vandermonde_identity(c, d, n)
                assert rep.ok
                assert rep.lhs == math.comb(d, n)
    with pytest.raises(InvalidInputError):
        vandermonde_identity(3, 2, 1)


def test_finite_total_rank_factor():
    rng = Random(505)
    for c in (1, 2):
        for _ in range(3):
            nvars = rng.randint(c, 3)
            ring = random_regular_ring(rng, QQ, nvars, c)
            K = random_finite_complex(rng, ring, rng.randint(1, 2))
            F = lift_to_Q(K)
            fam = solve_homotopies(F, c)
            P = assemble(F, fam)
            rep = rank_report(P)
            assert rep.total is not None
            product_total, scaled_base, ok = rep.total
            assert ok and product_total == scaled_base
            assert rep.ok


def test_transfer_bound_report():
    cbar, P, _ = _golden_product()
    # window support: no totals; use a finite input instead
    assert rank_report(P).total is None
    ring, G = lifted_koszul_pair()
    red = reduce_to_R(G)
    F = lift_to_Q(red)
    Pfin = assemble(F, solve_homotopies(F, 1))
    rep = rank_report(Pfin)
    assert rep.total == (8, 8, True)  # total rank 4 times 2^c, c = 1
    assert rep.ok


def test_minimality_labels():
    ring, G = lifted_koszul_pair()
    red = reduce_to_R(G)
    F = lift_to_Q(red)
    P = assemble(F, solve_homotopies(F, 1))
    rep = minimality_and_lifting_report(P)
    assert rep.minimal and rep.lifts and not rep.matrix_factorization
    assert rep.labels == ["MINIMAL", "LIFTS"]

    _, cbar = periodic_factorization()
    F2 = lift_to_Q(cbar)
    P2 = assemble(F2, solve_homotopies(F2, 1))
    rep2 = minimality_and_lifting_report(P2)
    assert rep2.matrix_factorization and not rep2.minimal and not rep2.lifts
    assert rep2.labels == ["MATRIX_FACTORIZATION"]

    _, cbar3, _ = paper_5_2()
    F3 = lift_to_Q(cbar3)
    P3 = assemble(F3, solve_homotopies(F3, 1))
    rep3 = minimality_and_lifting_report(P3)
    assert not rep3.minimal and not rep3.lifts and not rep3.matrix_factorization
    assert rep3.labels == []


def _doubled_factorization():
    """Two copies of the two-periodic resolution of R/(u) over
    R = k[u,v]/(uv): every homotopy is the 2x2 matrix -1 times identity."""
    ring = GradedRing(QQ, ["u", "v"], sequence=["u*v"])
    u, v, z = ring.parse("u"), ring.parse("v"), ring.zero
    diffs = {}
    for m in range(1, 5):
        g = u if m % 2 else v
        diffs[m] = PolyMatrix.from_rows([[g, z], [z, g]])
    cbar = FreeComplex(
        ring, "R", (0, 4), {m: (m, m) for m in range(5)}, diffs, support="bounded_below"
    )
    F = lift_to_Q(cbar)
    return ring, assemble(F, solve_homotopies(F, 1))


def _with_homotopy_at(P, n, rows):
    """P with its stored t^{e_1} at position n replaced by ``rows``."""
    maps = dict(P.family.maps[(1,)])
    maps[n] = PolyMatrix.from_rows([[P.ring.parse(e) for e in row] for row in rows])
    family = HomotopyFamily(P.lift, 1, {(1,): maps})
    return ProductComplex(P.complex, P.lift, P.blocks, family)


def test_matrix_factorization_verdict_reads_the_nonzeros():
    ring, P = _doubled_factorization()
    stored = P.family.maps[(1,)]
    assert stored and all(_strs(m) == [["-1", "0"], ["0", "-1"]] for m in stored.values())
    assert minimality_and_lifting_report(P).matrix_factorization

    n = max(stored)
    # an off-diagonal entry beside the unit diagonal
    off = _with_homotopy_at(P, n, [["-1", "0"], ["u", "-1"]])
    assert not minimality_and_lifting_report(off).matrix_factorization
    # two different units on the diagonal
    unequal = _with_homotopy_at(P, n, [["-1", "0"], ["0", "-2"]])
    assert not minimality_and_lifting_report(unequal).matrix_factorization
    # a row without its diagonal entry
    missing = _with_homotopy_at(P, n, [["-1", "0"], ["0", "0"]])
    assert not minimality_and_lifting_report(missing).matrix_factorization


def test_epsilon_reports_the_row_major_first_failure():
    cbar, P, _ = _golden_product()
    ring = P.ring
    # two entries of d_1 of cbar that are not in (f): the residual of the
    # square at position 1 fails in row 0 at the columns of both, and the
    # report names the leftmost
    # d_1 of cbar is [[x, y]]; x is added to both entries
    assert matrix_to_json(cbar.diffs[1]) == [["x", "y"]]
    diffs = dict(cbar.diffs)
    diffs[1] = PolyMatrix.from_rows([[ring.parse("2*x"), ring.parse("x + y")]])
    bad = FreeComplex(ring, "R", cbar.window, cbar.twists, diffs, support=cbar.support)
    eps = epsilon_C(P, bad)
    offset = next(b.offset for b in P.blocks[1] if b.subset == ())
    assert not eps.ok
    assert eps.first_failure == (1, 0, offset)


def test_koszul_complex_assembles_over_itself():
    # reduce the Koszul complex on f mod f, lift back, assemble: ranks
    # multiply by 2^c and the result still squares to zero
    ring = random_regular_ring(Random(506), QQ, 2, 2)
    K = koszul_complex(ring, over="R")
    F = lift_to_Q(K)
    fam = solve_homotopies(F, 2)
    P = assemble(F, fam)
    assert check_complex(P.complex).ok
    assert rank_report(P).ok


def test_render_differential_smoke():
    _, P, _ = _golden_product()
    text = render_differential(P, 2)
    assert "d_2" in text and "|" in text and "-y^2" in text


# -- minimize: the product pruned to its minimal Q-complex -----------------------


def _fixture_product(ring_name, complex_path):
    ring = GradedRing.from_json_dict(
        json.loads((FIXTURES / f"{ring_name}_ring.json").read_text())
    )
    data = json.loads((FIXTURES / complex_path).read_text())
    cbar = FreeComplex.from_json_dict(ring, data.get("complex", data))
    F = lift_to_Q(cbar)
    return cbar, assemble(F, solve_homotopies(F, ring.c))


def _assert_minimize_keeps_homology(P, degree_bound):
    before = P.complex.to_json_dict()
    M = minimize(P.complex)
    assert P.complex.to_json_dict() == before  # the input is not changed
    assert (M.ring, M.over, M.window, M.support) == (
        P.complex.ring,
        P.complex.over,
        P.complex.window,
        P.complex.support,
    )
    assert check_complex(M).ok and is_minimal(M)
    positions = list(P.complex.interior_positions())
    assert homology_dims(M, positions, degree_bound) == homology_dims(
        P.complex, positions, degree_bound
    )
    return M


@pytest.mark.parametrize(
    "name, length, tor",
    [
        ("residue", 5, [1, 2, 1, 0, 0]),
        ("mixed", 4, [2, 7, 10, 10]),
        ("generic", 4, [1, 3, 3, 1]),
        ("rational", 4, [1, 3, 3, 1]),
    ],
)
def test_minimize_product_of_a_resolution_is_the_minimal_Q_resolution(
    name, length, tor
):
    # P resolves M over Q, so below the resolve length L its minimal form
    # has the ranks dim Tor_n^Q(M, k)
    _, P = _fixture_product(name, f"resolve_{name}_length{length}.json")
    M = _assert_minimize_keeps_homology(P, 8)
    assert [M.rank(n) for n in range(length)] == tor
    assert minimize(M) == M


def test_minimize_product_of_a_window():
    # golden_complex.json is a window view: a unit at the top edge of the
    # product's window is cancelled, and the interior homology is kept
    _, P = _fixture_product("golden", "golden_complex.json")
    assert P.complex.support == "window"
    M = _assert_minimize_keeps_homology(P, 8)
    assert [M.rank(n) for n in M.positions()] == [3, 2, 2, 4]
    assert [P.complex.rank(n) for n in P.complex.positions()] == [3, 2, 3, 5]


def test_minimize_random_products_over_Fp():
    rng = Random(11)
    field = GF(32003)
    for _ in range(50):
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(3, nvars))
        ring = random_regular_ring(rng, field, nvars, c)
        cbar = random_resolved_complex(rng, ring, rng.randint(2, 4))
        F = lift_to_Q(cbar)
        _assert_minimize_keeps_homology(assemble(F, solve_homotopies(F, c)), 6)


def test_minimize_follows_its_pivot_rule():
    # the same pivots and Schur complements as the block rule run on dense
    # rows with cell-by-cell Poly arithmetic
    products = [
        _fixture_product(name, path)[1]
        for name, path in (
            ("residue", "resolve_residue_length5.json"),
            ("mixed", "resolve_mixed_length4.json"),
            ("golden", "golden_complex.json"),
        )
    ]
    rng = Random(5)
    for field in (GF(7), QQ):
        for _ in range(10):
            nvars = rng.randint(1, 3)
            c = rng.randint(1, min(3, nvars))
            ring = random_regular_ring(rng, field, nvars, c)
            F = lift_to_Q(random_resolved_complex(rng, ring, rng.randint(2, 3)))
            products.append(assemble(F, solve_homotopies(F, c)))
    for P in products:
        assert minimize(P.complex) == minimize_by_blocks(P.complex)


def test_minimized_product_has_the_homology_of_a_finite_complex():
    # the paper's claim on complexes with homology, not only resolutions:
    # minimize(P) has the homology of the complex K it was built from at
    # every shared interior position, in every degree up to 6.  The lifts
    # of K are not complexes over Q, so most cases need nonzero homotopies
    above_bottom = with_homotopies = 0
    for ring, K in finite_complex_cases(Random(4), 50):
        F = lift_to_Q(K)
        family = solve_homotopies(F, ring.c)
        M = minimize(assemble(F, family).complex)
        shared = sorted(set(M.interior_positions()) & set(K.interior_positions()))
        assert shared == list(K.interior_positions())
        hm, hk = homology_dims(M, shared, 6), homology_dims(K, shared, 6)
        for key in hm.keys() | hk.keys():
            assert hm.get(key, 0) == hk.get(key, 0), (ring, key)
        above_bottom += any(v for (n, _), v in hk.items() if n > shared[0])
        with_homotopies += any(
            not t.is_zero() for alpha in family.maps if alpha for t in family.maps[alpha].values()
        )
    assert above_bottom >= 40 and with_homotopies >= 20


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
@pytest.mark.parametrize(
    "sequence, ranks, minimal_ranks",
    [
        (["x^2"], [1, 2, 2, 2, 1], [1, 1, 0, 1, 1]),
        (["x^2", "y^2"], [1, 3, 4, 4, 3, 1], [1, 2, 1, 1, 2, 1]),
    ],
    ids=["c1", "c2"],
)
def test_minimize_cancels_units_of_a_product_with_homology(
    field, sequence, ranks, minimal_ranks
):
    # K = R(-3) -x-> R(-2) -x-> R(-1) -x-> R with f in (x^2): d^2 = x^2 is
    # zero over R, not over Q, so the homotopies are nonzero and the product
    # has units.  H_0(K) = R/(x) and H_3(K) = (0 : x)(-3) = xR(-3) are nonzero
    ring = GradedRing(field, ["x", "y"], sequence=sequence)
    x = PolyMatrix.from_rows([[ring.parse("x")]])
    K = FreeComplex(
        ring,
        "R",
        (0, 3),
        {n: (n,) for n in range(4)},
        {n: x for n in range(1, 4)},
        support="finite",
    )
    assert check_complex(K).ok
    F = lift_to_Q(K)
    P = assemble(F, solve_homotopies(F, ring.c)).complex
    M = minimize(P)
    assert [P.rank(n) for n in P.positions()] == ranks
    assert [M.rank(n) for n in M.positions()] == minimal_ranks
    assert check_complex(M).ok and is_minimal(M)
    shared = list(K.interior_positions())
    assert homology_dims(M, shared, 8) == homology_dims(K, shared, 8)
    hk = homology_dims(K, shared, 8)
    assert [n for n in shared if any(hk[(n, d)] for d in range(9))] == [0, 3]


def test_minimize_leaves_a_minimal_complex_alone():
    cbar, _ = _fixture_product("mixed", "resolve_mixed_length4.json")
    assert is_minimal(cbar)
    assert minimize(cbar) == cbar


def test_minimize_cancels_a_unit_by_the_schur_complement():
    # d_1 = [1 y] : Q + Q(-1) -> Q and d_2 = [-xy; x] : Q(-2) -> Q + Q(-1).
    # The unit at (0, 0) of d_1 cancels F_0 against the first generator of
    # F_1: d_1 becomes 0x1 and d_2 loses its row 0
    def mat(ring, rows):
        return PolyMatrix.from_rows([[ring.parse(e) for e in row] for row in rows])

    ring = GradedRing(QQ, ["x", "y"])
    C = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0,), 1: (0, 1), 2: (2,)},
        {1: mat(ring, [["1", "y"]]), 2: mat(ring, [["-x*y"], ["x"]])},
        support="finite",
    )
    assert check_complex(C).ok
    M = minimize(C)
    assert [M.rank(n) for n in M.positions()] == [0, 1, 1]
    assert _strs(M.diffs[2]) == [["x"]]
    assert M.diffs[1].nrows == 0 and M.diffs[1].ncols == 1

    # d_1 = [[2, x], [x, xy]] over Q = k[x,y]/(x^2) becomes
    # xy - x * 2^-1 * x = xy - x^2/2, whose normal form is xy
    ring = GradedRing(QQ, ["x", "y"], relations=["x^2"])
    C = FreeComplex(
        ring,
        "Q",
        (0, 1),
        {0: (1, 0), 1: (1, 2)},
        {1: mat(ring, [["2", "x"], ["x", "x*y"]])},
        support="finite",
    )
    M = minimize(C)
    assert M.twists == {0: (0,), 1: (2,)}
    assert _strs(M.diffs[1]) == [["x*y"]]


def test_minimize_rejects_a_nonconstant_entry_between_equal_twists():
    # an entry joining two generators of twist 0 must be a constant; x there
    # is not homogeneous of its forced degree, and no block can be read
    ring = GradedRing(QQ, ["x"])
    C = FreeComplex(
        ring,
        "Q",
        (0, 1),
        {0: (0,), 1: (0,)},
        {1: PolyMatrix.from_rows([[ring.parse("x")]])},
        support="finite",
    )
    with pytest.raises(InvalidInputError, match="should be a constant"):
        minimize(C)


def test_minimize_rejects_a_lift():
    cbar, _ = _fixture_product("mixed", "resolve_mixed_length4.json")
    with pytest.raises(InvalidInputError):
        minimize(lift_to_Q(cbar))
