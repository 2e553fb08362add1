"""The benchmark's workloads and their seeded inputs.

Each workload resolves the residue field k = coker(x_1 ... x_n) over a
complete intersection R = k[x]/(J + f) and then runs the ``verify`` battery
on that resolution.  The seed only scales the variables (``generate``): the
monomial supports, pivots, matrix sizes and Betti numbers stay fixed, so
every seed measures the same amount of work and the Tate-Gulliksen oracle
(``gate.tate_betti``) applies to all of them.  Why each workload is in the
benchmark is recorded in BENCHMARK.json.

The library receives nothing but the JSON documents built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

P = 32003


@dataclass(frozen=True)
class Workload:
    """A fixed problem shape.  Polynomials are term lists of
    (coefficient, exponent tuple) over ``variables``; ``relations`` are the
    monomial generators of J.  The sequence must be regular; scaling the
    variables keeps it so."""

    name: str
    field: object  # a prime or "Q"
    variables: tuple
    relations: tuple
    sequence: tuple
    length: int
    resolve_bound: int
    verify_bound: int

    @property
    def calibration(self) -> str:
        """The kind of ``run.calibrate`` work whose speed tracks this
        workload's on a drifting host: Fraction arithmetic for exact
        elimination over Q, mixed interpreter and numpy work over F_p."""
        return "fraction" if self.field == "Q" else "mixed"


@dataclass(frozen=True)
class Inputs:
    """What one seed of a workload hands to the CLI, plus what the oracle
    needs: the degrees of a regular sequence generating J + f."""

    workload: Workload
    ring: dict
    presentation: dict
    ci_degrees: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="residue-fp",
            field=P,
            variables=("x", "y", "z", "w"),
            relations=((0, 0, 0, 2),),
            sequence=(
                ((1, (2, 0, 0, 0)),),
                ((1, (0, 2, 0, 0)),),
                ((1, (0, 0, 3, 0)),),
            ),
            length=4,
            resolve_bound=7,
            verify_bound=7,
        ),
        Workload(
            name="generic-qq",
            field="Q",
            variables=("x", "y", "z"),
            relations=(),
            sequence=(
                ((1, (2, 0, 0)), (1, (0, 1, 1))),
                ((1, (0, 2, 0)), (1, (1, 0, 1))),
                ((1, (0, 0, 2)), (1, (1, 1, 0))),
            ),
            length=4,
            resolve_bound=5,
            verify_bound=5,
        ),
        Workload(
            name="lift-fp",
            field=P,
            variables=("x", "y", "z", "w"),
            relations=(),
            sequence=(
                ((1, (2, 0, 0, 0)),),
                ((1, (0, 2, 0, 0)),),
                ((1, (0, 0, 2, 0)),),
                ((1, (0, 0, 0, 2)),),
            ),
            length=5,
            resolve_bound=6,
            verify_bound=6,
        ),
    )
}


def format_poly(variables, terms) -> str:
    """Render a term list in the library's polynomial grammar."""
    text = ""
    for coeff, expts in terms:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(variables, expts)
            if e
        ]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if not text:
            text = f"-{body}" if coeff < 0 else body
        else:
            text += f" - {body}" if coeff < 0 else f" + {body}"
    return text or "0"


def _scale(terms, scalars, p):
    """Apply x_i -> scalars[i] * x_i to a term list, reducing mod ``p``
    unless it is None.  This is a graded automorphism of the polynomial
    ring and it keeps every monomial support, so the elimination matrices
    change only by nonzero row and column scalings: the same pivots, fill
    and (over Q) Fraction sizes for every seed."""
    out = []
    for coeff, expts in terms:
        for s, e in zip(scalars, expts):
            coeff *= s**e
        out.append((coeff % p if p else coeff, expts))
    return tuple(out)


def _ring_json(w: Workload, relations, sequence) -> dict:
    return {
        "field": w.field,
        "variables": list(w.variables),
        "relations": [format_poly(w.variables, ((1, m),)) for m in relations],
        "sequence": [format_poly(w.variables, f) for f in sequence],
    }


def generate(w: Workload, seed: int) -> Inputs:
    """Build the seed's ring and presentation JSON: the workload's sequence
    and the variables of the residue-field presentation under
    x_i -> a_i x_i, with each a_i a seeded nonzero scalar of F_p or a seeded
    sign over Q.  J is monomial and keeps its generators."""
    rng = Random(f"{w.name}/{seed}")
    n = len(w.variables)
    if w.field == "Q":
        scalars, p = [rng.choice((-1, 1)) for _ in range(n)], None
    else:
        scalars, p = [rng.randrange(1, w.field) for _ in range(n)], w.field
    sequence = [_scale(f, scalars, p) for f in w.sequence]
    units = [_scale(((1, tuple(int(i == k) for i in range(n))),), scalars, p) for k in range(n)]
    ci_degrees = tuple(sum(m) for m in w.relations) + tuple(
        sum(f[0][1]) for f in w.sequence
    )
    presentation = {
        "twists": [0],
        "relations": [[format_poly(w.variables, t) for t in units]],
    }
    return Inputs(w, _ring_json(w, w.relations, sequence), presentation, ci_degrees)
