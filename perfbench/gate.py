"""Exactness gate for one benchmark instance, independent of the library.

For a complete intersection R = k[x_1..x_n]/(g_1..g_m) with deg g_j = e_j,
the graded Poincare series of the residue field k is (Tate 1957, Homology of
Noetherian rings and local rings)

    sum_{i,j} beta_{i,j} t^i s^j = (1 + t s)^n / prod_j (1 - t^2 s^{e_j}),

so the graded Betti numbers of a correct minimal resolution of k are known
in advance.  Comparing them catches answers that every internal check
accepts, such as a resolution silently truncated by its degree bound.
"""

from __future__ import annotations

from math import comb

SCHEMA = "koszul-lift/1"


def tate_betti(nvars: int, degrees, max_position: int) -> dict:
    """{(i, j): beta_{i,j}} of k over a complete intersection with generator
    degrees ``degrees`` in ``nvars`` variables, for i <= max_position."""
    series = {(i, i): comb(nvars, i) for i in range(min(nvars, max_position) + 1)}
    for e in degrees:
        out: dict = {}
        for (i, j), c in series.items():
            for k in range((max_position - i) // 2 + 1):
                key = (i + 2 * k, j + e * k)
                out[key] = out.get(key, 0) + c
        series = out
    return series


def betti_from_twists(twists) -> dict:
    """{(i, j): count} of generator twists in a ``koszul-lift/1`` complex."""
    out: dict = {}
    for n, tw in twists.items():
        for a in tw:
            key = (int(n), int(a))
            out[key] = out.get(key, 0) + 1
    return out


def betti_problems(twists, nvars: int, degrees, length: int) -> list:
    """Every graded Betti number through position ``length`` that differs
    from the Tate-Gulliksen series."""
    want = tate_betti(nvars, degrees, length)
    got = betti_from_twists(twists)
    return [
        f"beta_{i},{j}: expected {want.get((i, j), 0)}, got {got.get((i, j), 0)}"
        for i, j in sorted(set(want) | set(got))
        if want.get((i, j), 0) != got.get((i, j), 0)
    ]


def resolve_problems(rc: int, payload, nvars: int, degrees, length: int) -> list:
    """Problems with a ``resolve --format json`` result."""
    if rc != 0:
        return [f"resolve exited {rc}"]
    if payload.get("schema") != SCHEMA or payload.get("command") != "resolve":
        return ["resolve output is not a koszul-lift/1 resolve document"]
    return betti_problems(payload["complex"]["twists"], nvars, degrees, length)


def verify_problems(rc: int, payload) -> list:
    """Problems with a ``verify --format json`` result."""
    problems = []
    if rc != 0:
        problems.append(f"verify exited {rc}")
    if payload is None or payload.get("ok") is not True:
        failed = [c["name"] for c in (payload or {}).get("checks", []) if not c["ok"]]
        problems.append(f"verify not ok: {failed}")
    return problems
