"""Acceptance gate: seven criteria, one printed PASS/FAIL line each.

Run with output visible:  pytest tests/test_acceptance.py -v -s

Everything here is exact arithmetic (Fraction over Q, modular over F_p);
no tolerances anywhere.  Criteria 2 and 3 randomize over F_32003 with
fixed seeds; criterion 4 re-checks the rank identity on every assembly
the earlier criteria produced.
"""

import math
import time
from random import Random

from koszul_lift.assembly import (
    assemble,
    epsilon_C,
    minimality_and_lifting_report,
    permute_matrix,
    rank_report,
    reverse_block_order,
    vandermonde_identity,
)
from koszul_lift.builtin_examples import (
    lifted_koszul_pair,
    paper_5_2,
    periodic_factorization,
)
from koszul_lift.complexes import (
    check_complex,
    homology_dims,
    lift_to_Q,
    reduce_to_R,
)
from koszul_lift.fields import GF, QQ
from koszul_lift.homotopy import (
    checkable_gammas,
    eisenbud_operator_checks,
    solve_homotopies,
    verify_relation,
)
from koszul_lift.koszul import (
    all_subsets,
    insert_index,
    insertion_count,
    inversions,
    koszul_differential,
    wedge,
)
from koszul_lift.resolve import Presentation, resolve_over_R
from koszul_lift.samples import (
    random_finite_complex,
    random_regular_ring,
    random_resolved_complex,
)
from koszul_lift.algebra import GradedRing, PolyMatrix

from oracles import brute_wedge, var

MODP = GF(32003)

# assemblies produced while the file runs; criterion 4 sweeps them
_PRODUCED = []


def _report(num, label, failures, detail=""):
    ok = not failures
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, failures[:5]


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


def _pipeline(cbar, level=None):
    F = lift_to_Q(cbar)
    c = cbar.ring.c
    fam = solve_homotopies(F, c if level is None else level)
    P = assemble(F, fam)
    _PRODUCED.append((P, cbar))
    return F, fam, P


def test_criterion_1_golden_worked_example():
    t0 = time.perf_counter()
    failures = []
    _, cbar, expected = paper_5_2()
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, 1)
    t = fam.maps[(1,)]
    if _strs(t[2]) != [["0", "-1", "0"]]:
        failures.append(f"t at 2: {_strs(t[2])}")
    if _strs(t[1]) != [["0", "-x"]]:
        failures.append(f"t at 1: {_strs(t[1])}")
    if _strs(t[0]) != [["0"], ["-x"]]:
        failures.append(f"t at 0: {_strs(t[0])}")

    P = assemble(F, fam)
    _PRODUCED.append((P, cbar))
    for n, rows in expected["product_displayed"].items():
        got = _displayed(P, int(n))
        if got != rows:
            failures.append(f"displayed differential {n}: {got}")

    eps = epsilon_C(P, cbar)
    if not eps.ok:
        failures.append(f"projection squares fail at {eps.first_failure}")
    for n, rows in expected["epsilon_displayed"].items():
        cols = reverse_block_order(P, int(n))
        mat = eps.maps[int(n)]
        disp = [[str(mat.rows[i][j]) for j in cols] for i in range(mat.nrows)]
        if disp != rows:
            failures.append(f"displayed projection {n}: {disp}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(
        1,
        "golden worked example reproduced exactly",
        failures,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_differential_squares_to_zero_randomized():
    t0 = time.perf_counter()
    failures = []
    rng = Random(20250814)
    count = 0
    seen_c = set()
    while count < 50:
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(3, nvars))
        ring = random_regular_ring(rng, MODP, nvars, c)
        cbar = random_resolved_complex(rng, ring, rng.randint(2, 5))
        assert cbar.window[1] - cbar.window[0] + 1 <= 6
        _, _, P = _pipeline(cbar)
        rep = check_complex(P.complex)
        if not rep.ok:
            failures.append(f"input {count}: {rep.first().detail}")
        if not rank_report(P).ok:
            failures.append(f"input {count}: rank identity")
        seen_c.add(c)
        count += 1
    if seen_c != {1, 2, 3}:
        failures.append(f"codimensions exercised: {sorted(seen_c)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(
        2,
        "assembled differential squares to zero on 50 randomized inputs",
        failures,
        f"{count} inputs, c in {sorted(seen_c)}, {elapsed:.1f}s",
    )


def _residue_presentation(ring):
    return Presentation(
        (0,),
        PolyMatrix.from_rows(
            [[var(ring, v) for v in ring.variables]],
            ncols=len(ring.variables),
        ),
    )


def _homology_agrees(cbar, P, bound, failures, tag):
    prod = P.complex
    shared = sorted(
        set(prod.interior_positions()) & set(cbar.interior_positions())
    )
    if not shared:
        return
    hp = homology_dims(prod, shared, bound)
    hc = homology_dims(cbar, shared, bound)
    for key in set(hp) | set(hc):
        if hp.get(key, 0) != hc.get(key, 0):
            failures.append(
                f"{tag} at {key}: product {hp.get(key, 0)} vs input {hc.get(key, 0)}"
            )
            return


def test_criterion_3_homology_preservation():
    t0 = time.perf_counter()
    failures = []

    # the minimal resolution of the residue field over k[x,y]/(x^2, y^2),
    # via both admissible presentations of that ring, window [0, 5]
    ring1 = GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["y^2"])
    ring2 = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    for tag, ring in (("codim 1", ring1), ("codim 2", ring2)):
        cbar = resolve_over_R(ring, _residue_presentation(ring), 5, 12)
        betti = [len(cbar.twists[n]) for n in cbar.positions()]
        if betti != [1, 2, 3, 4, 5, 6]:
            failures.append(f"{tag}: betti {betti}")
        _, _, P = _pipeline(cbar)
        _homology_agrees(cbar, P, 8, failures, tag)

    # randomized inputs
    rng = Random(20250815)
    done = 0
    while done < 10:
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(2, nvars))
        ring = random_regular_ring(rng, MODP, nvars, c)
        cbar = random_resolved_complex(rng, ring, rng.randint(2, 3))
        _, _, P = _pipeline(cbar)
        _homology_agrees(cbar, P, 8, failures, f"random {done}")
        done += 1

    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(
        3,
        "graded homology preserved by the product construction",
        failures,
        f"2 golden + {done} randomized, degrees <= 8, {elapsed:.1f}s",
    )


def test_criterion_4_rank_identities():
    failures = []
    # every assembly produced so far satisfies the per-position identity
    swept = 0
    for P, cbar in _PRODUCED:
        if not rank_report(P).ok:
            failures.append(f"rank identity fails on {P!r}")
        swept += 1
    if swept < 3:  # criteria 1-3 must have fed this sweep
        failures.append(f"only {swept} assemblies were produced")

    # finite complexes: total rank gains exactly the factor 2^c
    rng = Random(20250816)
    finite_checked = {1: 0, 2: 0}
    for c in (1, 2):
        while finite_checked[c] < 3:
            ring = random_regular_ring(rng, MODP, rng.randint(c, 3), c)
            K = random_finite_complex(rng, ring, rng.randint(1, 2))
            F = lift_to_Q(K)
            P = assemble(F, solve_homotopies(F, c))
            rep = rank_report(P)
            if rep.total is None or not rep.total[2] or not rep.ok:
                failures.append(f"finite c={c}: totals {rep.total}")
            finite_checked[c] += 1

    # the convolution identity, exhaustively in the contract range
    bad = 0
    for c in range(0, 13):
        for d in range(c, 13):
            for n in range(0, 13):
                rep = vandermonde_identity(c, d, n)
                if not rep.ok or rep.rhs != math.comb(d, n):
                    bad += 1
    if bad:
        failures.append(f"{bad} convolution failures")

    _report(
        4,
        "rank identities: per-position, finite 2^c totals, convolution",
        failures,
        f"{swept} assemblies swept, 6 finite complexes, c,d,n <= 12",
    )


def test_criterion_5_eisenbud_operator_properties():
    failures = []
    # deterministic c = 2 input over Q
    ring = GradedRing(QQ, ["x", "y"], sequence=["x^2", "y^2"])
    cbar = resolve_over_R(ring, _residue_presentation(ring), 4, 12)
    fam = solve_homotopies(lift_to_Q(cbar), 2)
    rep = eisenbud_operator_checks(fam)
    if not rep.ok:
        failures.append("golden c=2: checks fail")
    if len(rep.chain_maps) != 2 or len(rep.commutators) != 1:
        failures.append(
            f"golden c=2: {len(rep.chain_maps)} chain maps, "
            f"{len(rep.commutators)} commutators"
        )
    for g in checkable_gammas(fam):
        if not verify_relation(fam, g).ok:
            failures.append(f"golden c=2: relation {g}")

    # randomized c = 2 inputs mod p
    rng = Random(20250817)
    for k in range(3):
        ring = random_regular_ring(rng, MODP, rng.randint(2, 3), 2)
        cbar = random_resolved_complex(rng, ring, rng.randint(2, 4))
        fam = solve_homotopies(lift_to_Q(cbar), 2)
        rep = eisenbud_operator_checks(fam)
        if not rep.ok:
            failures.append(f"random {k}: checks fail")
    _report(
        5,
        "Eisenbud operators: chain maps and commutator boundaries, c = 2",
        failures,
        "1 exact + 3 randomized families",
    )


def test_criterion_6_lifting_and_factorization_dichotomy():
    failures = []

    # a reduced-then-lifted genuine Q-complex: homotopies vanish, assembly
    # is minimal and reports LIFTS
    ring, G = lifted_koszul_pair()
    cbar = reduce_to_R(G)
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, 1)
    if any(not m.is_zero() for d in fam.maps.values() for m in d.values()):
        failures.append("pair: nonzero homotopy")
    if F.diffs != G.diffs:
        failures.append("pair: lift is not the original complex")
    P = assemble(F, fam)
    rep = minimality_and_lifting_report(P)
    if rep.labels != ["MINIMAL", "LIFTS"]:
        failures.append(f"pair labels: {rep.labels}")
    if not check_complex(P.complex).ok:
        failures.append("pair: product is not a complex")

    # the two-periodic resolution over the hypersurface: unit homotopy,
    # matrix factorization, necessarily non-minimal
    _, cbar2 = periodic_factorization()
    F2 = lift_to_Q(cbar2)
    fam2 = solve_homotopies(F2, 1)
    for n, m in fam2.maps[(1,)].items():
        if _strs(m) != [["-1"]]:
            failures.append(f"periodic homotopy at {n}: {_strs(m)}")
    P2 = assemble(F2, fam2)
    rep2 = minimality_and_lifting_report(P2)
    if rep2.labels != ["MATRIX_FACTORIZATION"]:
        failures.append(f"periodic labels: {rep2.labels}")
    if rep2.minimal:
        failures.append("periodic assembly claims minimality")
    _report(
        6,
        "lifting vs matrix factorization dichotomy",
        failures,
        "Koszul pair lifts; hypersurface module factors",
    )


def test_criterion_7_combinatorial_exhaustives():
    failures = []
    cmax = 4
    ring = GradedRing(
        QQ, ["x1", "x2", "x3", "x4"], sequence=["x1", "x2", "x3", "x4"]
    )

    checked = 0
    for a in all_subsets(cmax):
        for b in all_subsets(cmax):
            got = wedge(a, b)
            want = brute_wedge(a, b)
            if (got.index, got.sign) != want:
                failures.append(f"wedge {a} {b}")
            checked += 1
            if set(a) & set(b):
                continue
            ba = wedge(b, a)
            if got.sign != (-1) ** (len(a) * len(b)) * ba.sign:
                failures.append(f"anticommutativity {a} {b}")
            for d in all_subsets(cmax):
                left = wedge(got.index, d)
                bd = wedge(b, d)
                right = wedge(a, bd.index)
                if left.index != right.index or got.sign * left.sign != bd.sign * right.sign:
                    failures.append(f"associativity {a} {b} {d}")

    # Leibniz and the square of the Koszul differential, symbolically
    for a in all_subsets(cmax):
        acc = {}
        for sub, cf in koszul_differential(ring, a):
            for sub2, cf2 in koszul_differential(ring, sub):
                acc[sub2] = acc.get(sub2, ring.zero) + ring.mul(cf, cf2)
        if any(not v.is_zero() for v in acc.values()):
            failures.append(f"d^2 e_{a}")
        for b in all_subsets(cmax):
            if set(a) & set(b):
                continue
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
                    rhs[w.index] = rhs.get(w.index, ring.zero) + cf * (
                        w.sign * (-1) ** len(a)
                    )
            keys = set(lhs) | set(rhs)
            if any(
                lhs.get(k, ring.zero) != rhs.get(k, ring.zero) for k in keys
            ):
                failures.append(f"Leibniz {a} {b}")

    # the two sign identities used in the inductive proof
    for i in range(1, cmax + 1):
        for a in all_subsets(cmax):
            if i not in a:
                continue
            for b in all_subsets(cmax):
                if set(a) & set(b):
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
                if (-1) ** lhs != (-1) ** rhs:
                    failures.append(f"swap identity i={i} {a} {b}")
    for a in all_subsets(cmax):
        for d in all_subsets(cmax):
            if set(a) & set(d):
                continue
            for e in all_subsets(cmax):
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
                if (-1) ** lhs != (-1) ** rhs:
                    failures.append(f"rotation identity {a} {d} {e}")

    _report(
        7,
        "sign and index combinatorics exhaustive through c = 4",
        failures,
        f"{checked} wedge pairs plus Leibniz and proof identities",
    )
