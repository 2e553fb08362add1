"""Command line interface.

Commands
--------
lift        solve the homotopy family of an R-complex's chosen lift
assemble    build the product complex from homotopies solved to level c
verify      run the full check battery on an input, or a seeded random suite
resolve     minimal free resolution of a presented module over R
example     print or verify a built-in worked example
regularity  Koszul-homology regularity certificate for the ring's sequence

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input or
usage.  JSON output carries the schema tag "koszul-lift/1" and is byte
deterministic for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from . import __version__
from .algebra import GradedRing, matrix_to_json
from .assembly import (
    ProductComplex,
    assemble,
    epsilon_C,
    minimality_and_lifting_report,
    permute_matrix,
    rank_report,
    render_differential,
    render_matrix,
    render_position,
    reverse_block_order,
    vandermonde_identity,
)
from .builtin_examples import get_example
from .complexes import (
    FreeComplex,
    check_complex,
    homology_dims,
    lift_to_Q,
    minimize,
)
from .errors import InvalidInputError, KoszulLiftError, ParseError
from .fields import GF
from .homotopy import checkable_gammas, solve_homotopies, verify_relation
from .koszul import check_regular_up_to
from .resolve import Presentation, resolve_over_R
from .samples import random_regular_ring, random_resolved_complex

SCHEMA = "koszul-lift/1"
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
RANDOM_FIELD = 32003


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_ring(path: str) -> GradedRing:
    return GradedRing.from_json_dict(_read_json(path))


def _load_complex(ring: GradedRing, path: str) -> FreeComplex:
    return FreeComplex.from_json_dict(ring, _read_json(path))


def _emit(args, text: str, payload=None):
    """Write the report (text mode) or the JSON payload (json mode)."""
    out = json.dumps(payload, indent=2) if args.format == "json" else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        sys.stdout.write(out + "\n")


def _describe_ring(ring: GradedRing) -> str:
    field = (
        "Q" if ring.field.char == 0 else f"F_{ring.field.char}"
    )
    rel = ", ".join(ring.format_monomial(m) for m in ring.relations) or "0"
    seq = ", ".join(str(f) for f in ring.sequence) or "(empty)"
    return (
        f"k = {field}; P = k[{', '.join(ring.variables)}]; J = ({rel}); "
        f"f = ({seq})"
    )


def _describe_complex(C: FreeComplex) -> str:
    lo, hi = C.window
    ranks = ", ".join(f"{n}:{len(C.twists[n])}" for n in C.positions())
    return (
        f"over {C.over}, window [{lo}, {hi}], support {C.support}, "
        f"ranks {{{ranks}}}"
    )


def _check_line(name: str, ok: bool, detail: str = "") -> str:
    mark = "PASS" if ok else "FAIL"
    return f"[{mark}] {name}" + (f": {detail}" if detail else "")


# -- lift -------------------------------------------------------------------


def _cmd_lift(args) -> int:
    ring = _load_ring(args.ring)
    cbar = _load_complex(ring, args.complex)
    if cbar.over != "R":
        raise ParseError("lift expects a complex over R")
    level = ring.c if args.level is None else args.level
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, level)
    lines = [
        f"ring: {_describe_ring(ring)}",
        f"complex: {_describe_complex(cbar)}",
        f"solved homotopies to level {fam.level}",
    ]
    for alpha in sorted(fam.maps, key=lambda a: (len(a), a)):
        pos = sorted(fam.maps[alpha])
        nz = sum(0 if fam.maps[alpha][n].is_zero() else 1 for n in pos)
        lines.append(
            f"  t^{list(alpha)}: positions {pos}, {nz} nonzero"
        )
    payload = {
        "schema": SCHEMA,
        "command": "lift",
        "ring": ring.to_json_dict(),
        "level": fam.level,
        "family": fam.to_json_dict(),
    }
    _emit(args, "\n".join(lines), payload)
    return EXIT_PASS


# -- assemble ----------------------------------------------------------------


def _blocks_json(P: ProductComplex):
    out = {}
    for n in sorted(P.blocks):
        out[str(n)] = [
            {
                "subset": list(b.subset),
                "f_position": b.f_position,
                "rank": b.rank,
                "offset": b.offset,
            }
            for b in P.blocks[n]
        ]
    return out


def _cmd_assemble(args) -> int:
    ring = _load_ring(args.ring)
    cbar = _load_complex(ring, args.complex)
    if cbar.over != "R":
        raise ParseError("assemble expects a complex over R")
    F = lift_to_Q(cbar)
    P = assemble(F, solve_homotopies(F, ring.c))
    lines = [
        f"ring: {_describe_ring(ring)}",
        f"input: {_describe_complex(cbar)}",
        f"product: {_describe_complex(P.complex)}",
        "",
    ]
    lo, hi = P.complex.window
    for n in range(hi, lo - 1, -1):
        lines.append(render_position(P, n))
    lines.append("")
    for n in range(hi, lo, -1):
        lines.append(render_differential(P, n))
        lines.append("")
    payload = {
        "schema": SCHEMA,
        "command": "assemble",
        "ring": ring.to_json_dict(),
        "product": P.complex.to_json_dict(),
        "blocks": _blocks_json(P),
        "family": P.family.to_json_dict(),
    }
    _emit(args, "\n".join(lines).rstrip(), payload)
    return EXIT_PASS


# -- verify -------------------------------------------------------------------


def _verify_input(ring, cbar, degree_bound):
    """The full battery; returns (checks, minimality report) where each
    check is a dict with name/ok/detail.  The report is None when the input
    is not a complex, as nothing is assembled then."""
    checks = []

    rep = check_complex(cbar)
    detail = "" if rep.ok else rep.first().detail
    checks.append(
        {"name": "input complex structure", "ok": rep.ok, "detail": detail}
    )
    if not rep.ok:
        return checks, None

    reg = check_regular_up_to(ring, degree_bound)
    checks.append(
        {
            "name": f"sequence regular up to degree {degree_bound}",
            "ok": reg.ok,
            "detail": "" if reg.ok else f"Koszul homology at {reg.first_failure}",
        }
    )

    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, ring.c)
    checks.append(
        {
            "name": f"homotopy system solvable to level {ring.c}",
            "ok": True,
            "detail": f"{sum(len(v) for v in fam.maps.values())} matrices",
        }
    )

    rel_ok = True
    rel_detail = ""
    for gamma in checkable_gammas(fam):
        rrep = verify_relation(fam, gamma)
        if not rrep.ok:
            rel_ok = False
            rel_detail = f"gamma={list(gamma)} at {rrep.first_failure}"
            break
    checks.append(
        {"name": "defining relations", "ok": rel_ok, "detail": rel_detail}
    )

    P = assemble(F, fam)
    prep = check_complex(P.complex)
    checks.append(
        {
            "name": "product differential squares to zero",
            "ok": prep.ok,
            "detail": "" if prep.ok else prep.first().detail,
        }
    )

    eps = epsilon_C(P, cbar)
    checks.append(
        {
            "name": "projection commutes with differentials",
            "ok": eps.ok,
            "detail": "" if eps.ok else f"first failure {eps.first_failure}",
        }
    )

    rr = rank_report(P)
    rank_detail = f"{len(rr.per_position)} positions"
    if rr.total:
        rank_detail += f"; totals {rr.total[0]} = {rr.total[1]}"
    checks.append(
        {"name": "rank identities", "ok": rr.ok, "detail": rank_detail}
    )

    # minimize is a homotopy equivalence, which keeps graded homology only
    # between complexes: the homology is read once d^2 = 0 has passed
    hom_ok = prep.ok
    hom_detail = "" if prep.ok else "product is not a complex"
    if prep.ok:
        prod = minimize(P.complex)
        p_int = set(prod.interior_positions())
        c_int = set(cbar.interior_positions())
        shared = sorted(p_int & c_int)
        # past the input's window, where its rank is known to be 0, the
        # product must be exact; one call shares the rank cache
        extra_zero = sorted(n for n in p_int - c_int if cbar.known_rank(n) == 0)
        positions = shared + extra_zero
        hp = homology_dims(prod, positions, degree_bound) if positions else {}
        hc = homology_dims(cbar, shared, degree_bound) if shared else {}
        diffs = {
            key: (hc.get(key, 0), hp.get(key, 0))
            for key in set(hc) | {k for k in hp if k[0] in c_int}
            if hp.get(key, 0) != hc.get(key, 0)
        }
        stray = sorted(k for k, v in hp.items() if v and k[0] not in c_int)
        if diffs:
            hom_ok = False
            key = min(diffs)
            hom_detail = (
                f"H_{key[0]} degree {key[1]}: input {diffs[key][0]}, "
                f"product {diffs[key][1]}"
            )
        elif stray:
            hom_ok = False
            hom_detail = f"stray homology beyond the input window: {stray[0]}"
        elif shared:
            hom_detail = f"positions {shared}, degrees <= {degree_bound}"
    checks.append(
        {
            "name": f"homology agreement up to degree {degree_bound}",
            "ok": hom_ok,
            "detail": hom_detail,
        }
    )

    return checks, minimality_and_lifting_report(P)


def _cmd_verify(args) -> int:
    if args.seed is not None and not args.ring:
        if args.complex is not None:
            raise ParseError(
                "verify --seed makes its own inputs; --complex needs --ring"
            )
        return _cmd_verify_random(args)
    if not args.ring or not args.complex:
        raise ParseError("verify needs --ring and --complex (or --seed)")
    for flag, value in (("--seed", args.seed), ("--count", args.count)):
        if value is not None:
            raise ParseError(
                f"verify --ring checks the given complex; {flag} belongs to "
                f"the seeded suite, which runs without --ring"
            )
    ring = _load_ring(args.ring)
    cbar = _load_complex(ring, args.complex)
    if cbar.over != "R":
        raise ParseError("verify expects a complex over R")
    checks, mr = _verify_input(ring, cbar, args.degree_bound)
    lines = [
        f"ring: {_describe_ring(ring)}",
        f"complex: {_describe_complex(cbar)}",
        "",
    ]
    lines.extend(_check_line(c["name"], c["ok"], c["detail"]) for c in checks)
    if mr:
        lines.append(
            "[INFO] assembly: "
            + (", ".join(mr.labels) if mr.labels else "no special shape")
        )
    npass = sum(1 for c in checks if c["ok"])
    ok = npass == len(checks)
    lines.append("")
    lines.append(f"result: {'PASS' if ok else 'FAIL'} ({npass}/{len(checks)})")
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "checks": checks,
        "labels": mr.labels if mr else [],
        "ok": ok,
    }
    _emit(args, "\n".join(lines), payload)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_verify_random(args) -> int:
    count = 20 if args.count is None else args.count
    if count < 1:
        raise InvalidInputError(f"--count must be >= 1, got {count}")
    rng = Random(args.seed)
    field = GF(RANDOM_FIELD)
    lines = [f"randomized suite: seed {args.seed}, {count} inputs, F_{RANDOM_FIELD}"]
    failures = 0
    for k in range(count):
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(3, nvars))
        ring = random_regular_ring(rng, field, nvars, c)
        cbar = random_resolved_complex(rng, ring, rng.randint(2, 5))
        checks, _ = _verify_input(ring, cbar, args.degree_bound)
        ok = all(check["ok"] for check in checks)
        if not ok:
            failures += 1
        lines.append(
            f"  [{k:03d}] c={c} nvars={nvars} window={list(cbar.window)} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    ok = failures == 0
    lines.append(f"result: {'PASS' if ok else 'FAIL'} ({count - failures}/{count})")
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "seed": args.seed,
        "count": count,
        "failures": failures,
        "ok": ok,
    }
    _emit(args, "\n".join(lines), payload)
    return EXIT_PASS if ok else EXIT_FAIL


# -- resolve -------------------------------------------------------------------


def _cmd_resolve(args) -> int:
    ring = _load_ring(args.ring)
    pres = Presentation.from_json_dict(ring, _read_json(args.presentation))
    C = resolve_over_R(ring, pres, args.length, args.degree_bound)
    lines = [
        f"ring: {_describe_ring(ring)}",
        f"resolution: {_describe_complex(C)}",
        "betti: "
        + ", ".join(f"b_{n} = {len(C.twists[n])}" for n in C.positions()),
    ]
    payload = {
        "schema": SCHEMA,
        "command": "resolve",
        "ring": ring.to_json_dict(),
        "complex": C.to_json_dict(),
    }
    _emit(args, "\n".join(lines), payload)
    return EXIT_PASS


# -- example -------------------------------------------------------------------


def _cmd_example(args) -> int:
    ring, cbar, expected = get_example(args.name)
    F = lift_to_Q(cbar)
    fam = solve_homotopies(F, ring.c)
    P = assemble(F, fam)
    eps = epsilon_C(P, cbar)

    displayed = {}
    for n in sorted(P.complex.diffs, reverse=True):
        disp = permute_matrix(
            P.complex.diffs[n],
            reverse_block_order(P, n - 1),
            reverse_block_order(P, n),
        )
        displayed[n] = matrix_to_json(disp)
    eps_displayed = {}
    for n in sorted(eps.maps, reverse=True):
        cols = reverse_block_order(P, n)
        eps_displayed[n] = [[row[j] for j in cols] for row in matrix_to_json(eps.maps[n])]

    verified = None
    problems = []
    if args.verify:
        for n, rows in expected["homotopies"].items():
            got = fam.maps[(1,)].get(int(n))
            want = matrix_to_json(got) if got else None
            if want != rows:
                problems.append(f"homotopy at {n}: got {want}, expected {rows}")
        for n, rows in expected["product_displayed"].items():
            if displayed.get(int(n)) != rows:
                problems.append(f"displayed differential at {n} differs")
        for n, rows in expected["epsilon_displayed"].items():
            if eps_displayed.get(int(n)) != rows:
                problems.append(f"displayed projection at {n} differs")
        if not eps.ok:
            problems.append("projection squares do not commute")
        verified = not problems

    lines = [
        f"example: {args.name}",
        f"ring: {_describe_ring(ring)}",
        f"input: {_describe_complex(cbar)}",
        f"product: {_describe_complex(P.complex)}",
        "",
    ]
    for alpha in sorted(fam.maps, key=lambda a: (len(a), a)):
        for n in sorted(fam.maps[alpha], reverse=True):
            rows = matrix_to_json(fam.maps[alpha][n])
            lines.append(f"t^{list(alpha)} at {n}: " + "; ".join(map(" ".join, rows)))
    lines.append("")
    for n in sorted(displayed, reverse=True):
        lines.append(f"displayed d_{n} (Koszul block first):")
        lines.append(render_matrix(displayed[n]))
        lines.append("")
    if verified is not None:
        for p in problems:
            lines.append(f"[FAIL] {p}")
        lines.append(
            f"golden values: {'PASS' if verified else 'FAIL'}"
        )
    payload = {
        "schema": SCHEMA,
        "command": "example",
        "name": args.name,
        "ring": ring.to_json_dict(),
        "complex": cbar.to_json_dict(),
        "family": fam.to_json_dict(),
        "product": P.complex.to_json_dict(),
        "displayed": {str(n): displayed[n] for n in sorted(displayed)},
        "verified": verified,
    }
    _emit(args, "\n".join(lines).rstrip(), payload)
    if verified is False:
        return EXIT_FAIL
    return EXIT_PASS


# -- regularity -----------------------------------------------------------------


def _cmd_regularity(args) -> int:
    ring = _load_ring(args.ring)
    rep = check_regular_up_to(ring, args.degree_bound)
    text = _check_line(
        f"sequence regular up to degree {args.degree_bound}",
        rep.ok,
        "" if rep.ok else f"Koszul homology nonzero at {rep.first_failure}",
    )
    payload = {
        "schema": SCHEMA,
        "command": "regularity",
        "ok": rep.ok,
        "degree_bound": rep.degree_bound,
        "first_failure": list(rep.first_failure) if rep.first_failure else None,
    }
    _emit(args, text, payload)
    return EXIT_PASS if rep.ok else EXIT_FAIL


# -- vandermonde helper (small, exposed for scripting) ---------------------------


def _cmd_vandermonde(args) -> int:
    rep = vandermonde_identity(args.c, args.d, args.n)
    text = (
        f"sum_i C({rep.c},i)*C({rep.d - rep.c},{rep.n}-i) = "
        f"{' + '.join(str(t) for t in rep.terms) or '0'} = {rep.lhs}; "
        f"C({rep.d},{rep.n}) = {rep.rhs}: {'PASS' if rep.ok else 'FAIL'}"
    )
    payload = {
        "schema": SCHEMA,
        "command": "vandermonde",
        "c": rep.c,
        "d": rep.d,
        "n": rep.n,
        "terms": rep.terms,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "ok": rep.ok,
    }
    _emit(args, text, payload)
    return EXIT_PASS if rep.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszul-lift",
        description=(
            "Lift graded free complexes modulo a regular sequence, solve "
            "the homotopy system, and assemble the product complex."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to a file")

    p = sub.add_parser("lift", help="solve homotopies on a lifted complex")
    p.add_argument("--ring", required=True, help="ring JSON file")
    common(p)
    p.add_argument("--complex", required=True, help="complex JSON file")
    p.add_argument("--level", type=int, default=None)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("assemble", help="build the product complex")
    p.add_argument("--ring", required=True, help="ring JSON file")
    common(p)
    p.add_argument("--complex", required=True)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("verify", help="run the check battery")
    p.add_argument("--ring", help="ring JSON file")
    common(p)
    p.add_argument("--complex")
    p.add_argument("--degree-bound", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("resolve", help="minimal free resolution over R")
    p.add_argument("--ring", required=True, help="ring JSON file")
    common(p)
    p.add_argument("--presentation", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--degree-bound", type=int, default=12)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("example", help="print or verify a built-in example")
    common(p)
    p.add_argument("name")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("regularity", help="regularity certificate")
    p.add_argument("--ring", required=True, help="ring JSON file")
    common(p)
    p.add_argument("--degree-bound", type=int, default=8)
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("vandermonde", help="binomial convolution identity")
    common(p)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_vandermonde)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KoszulLiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
