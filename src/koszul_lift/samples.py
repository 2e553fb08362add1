"""Seeded generators of valid random inputs.

Regularity is arranged by construction rather than checked after the
fact: the sequence lives on a private block of variables (f_i is a power
of x_i) while the monomial ideal J only touches the remaining variables,
so Q is free over the subring carrying the sequence.  Random complexes
come out of the resolver, which guarantees d^2 = 0 over R and minimality.
"""

from __future__ import annotations

from random import Random

from .algebra import GradedRing, Poly, PolyMatrix
from .complexes import FreeComplex
from .fields import Field
from .koszul import koszul_complex
from .resolve import Presentation, resolve_over_R

# Sizes of the random inputs.  The seeded digests in fixtures/ are taken
# over inputs drawn with these values.
_MAX_POWER = 2  # a_i in f_i = x_i^{a_i}
_MAX_J_GENERATORS = 2
_MAX_ENTRY_DEGREE = 2  # of a presentation, above its largest twist
_DEGREE_BOUND = 12  # of random_resolved_complex's resolve


def random_regular_ring(rng: Random, field: Field, nvars: int, c: int) -> GradedRing:
    """A ring with a provably regular length-c sequence: f_i = x_i^{a_i} on
    the first c variables, J generated by monomials in the others."""
    if not (0 <= c <= nvars):
        raise ValueError("need 0 <= c <= nvars")
    names = ["x", "y", "z", "u", "v", "w"][:nvars]
    if nvars > 6:
        names = [f"x{k}" for k in range(nvars)]
    relations = []
    free = list(range(c, nvars))
    if free:
        for _ in range(rng.randint(0, _MAX_J_GENERATORS)):
            expts = [0] * nvars
            for _ in range(rng.randint(1, 2)):
                expts[rng.choice(free)] += rng.randint(1, 2)
            relations.append(tuple(expts))
    sequence = []
    for i in range(c):
        expts = [0] * nvars
        expts[i] = rng.randint(1, _MAX_POWER)
        sequence.append(expts)
    ring = GradedRing(field, names, relations=relations)
    seq_polys = [Poly(ring, {tuple(e): field.one}) for e in sequence]
    return GradedRing(field, names, relations=relations, sequence=seq_polys)


def random_homogeneous(rng: Random, ring: GradedRing, d: int, density=0.7) -> Poly:
    """Random homogeneous element of Q_d (possibly zero)."""
    field = ring.field
    terms = {}
    for m in ring.monomial_basis(d):
        if rng.random() < density:
            if field.char == 0:
                c = rng.randint(-3, 3)
            else:
                c = rng.randrange(field.char)
            terms[m] = field(c)
    return Poly(ring, terms)


def random_presentation(
    rng: Random, ring: GradedRing, max_generators: int = 2, max_relations: int = 2
) -> Presentation:
    """A random graded presentation with unit-free homogeneous columns."""
    ngens = rng.randint(1, max_generators)
    twists = sorted(rng.randint(0, 1) for _ in range(ngens))
    ncols = rng.randint(1, max_relations)
    cols = []
    for _ in range(ncols):
        cd = max(twists) + rng.randint(1, _MAX_ENTRY_DEGREE)
        col = []
        for a in twists:
            p = random_homogeneous(rng, ring, cd - a)
            # keep entries away from units: degree >= 1 is forced by cd > max(twists)
            col.append(p)
        cols.append(col)
    rows = [[cols[j][i] for j in range(ncols)] for i in range(ngens)]
    return Presentation(tuple(twists), PolyMatrix(len(twists), ncols, rows))


def random_resolved_complex(rng: Random, ring: GradedRing, length: int) -> FreeComplex:
    """Minimal R-free resolution of a random module, bounded_below on
    [0, length].  Valid input for the lift/homotopy/assembly pipeline."""
    pres = random_presentation(rng, ring)
    return resolve_over_R(ring, pres, length, _DEGREE_BOUND)


def random_finite_complex(rng: Random, ring: GradedRing, k: int) -> FreeComplex:
    """A finite R-complex: the Koszul complex on k random homogeneous
    elements of degree 1 or 2 (d^2 = 0 holds for any choice)."""
    elements = []
    while len(elements) < k:
        g = random_homogeneous(rng, ring, rng.randint(1, 2))
        if not g.is_zero():
            elements.append(g)
    return koszul_complex(ring, elements, over="R")
