"""Random input generators: everything they produce must be valid."""

from random import Random

from koszul_lift.complexes import check_complex, is_minimal
from koszul_lift.fields import GF, QQ
from koszul_lift.koszul import check_regular_up_to
from koszul_lift.samples import (
    random_finite_complex,
    random_homogeneous,
    random_presentation,
    random_regular_ring,
    random_resolved_complex,
)


def test_random_rings_have_regular_sequences():
    # powers of distinct variables with relations on the remaining ones are
    # regular by construction; the probe must agree
    rng = Random(701)
    for _ in range(10):
        nvars = rng.randint(1, 3)
        c = rng.randint(1, min(3, nvars))
        ring = random_regular_ring(rng, QQ, nvars, c)
        assert ring.c == c
        assert len(ring.variables) == nvars
        rep = check_regular_up_to(ring, 6)
        assert rep.ok, (ring.relations, ring.sequence, rep.first_failure)


def test_random_homogeneous_degree():
    rng = Random(702)
    ring = random_regular_ring(rng, GF(32003), 3, 2)
    for d in range(5):
        for _ in range(10):
            p = random_homogeneous(rng, ring, d)
            assert p.is_zero() or p.degree() == d


def test_random_presentations_resolve():
    rng = Random(703)
    for _ in range(6):
        ring = random_regular_ring(rng, GF(32003), rng.randint(1, 3), 1)
        pres = random_presentation(rng, ring)
        degs = pres.column_degrees(ring)
        assert all(d is None or d >= 1 for d in degs)


def test_random_resolved_complexes_are_minimal_complexes():
    rng = Random(704)
    for _ in range(5):
        ring = random_regular_ring(rng, GF(32003), rng.randint(2, 3), 2)
        C = random_resolved_complex(rng, ring, rng.randint(2, 4))
        assert C.over == "R" and C.support == "bounded_below"
        assert check_complex(C).ok
        assert is_minimal(C)


def test_random_finite_complexes_are_complexes():
    rng = Random(705)
    for _ in range(5):
        ring = random_regular_ring(rng, QQ, rng.randint(2, 3), 1)
        K = random_finite_complex(rng, ring, rng.randint(1, 2))
        assert K.support == "finite"
        assert check_complex(K).ok
