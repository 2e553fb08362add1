"""Built-in worked examples.

``paper-5-2`` is the codimension-one golden example over
R = k[x,y]/(x^2, y^2), presented with Q = k[x,y]/(x^2) and f = y^2: the
two-sided minimal resolution of k viewed on the window [-2, 2], whose
homotopy and product matrices are known in closed form.  The expected
values here were worked out by hand and are frozen; the test suite and the
CLI verify runs against them.

The displayed form of the product matrices lists the Koszul block first,
which is the reverse of the canonical generator order
(``assembly.reverse_block_order``).
"""

from __future__ import annotations

from .algebra import GradedRing, PolyMatrix
from .complexes import FreeComplex
from .errors import InvalidInputError
from .fields import QQ


def _matrix(ring, rows, ncols=None):
    return PolyMatrix.from_rows(
        [[ring.parse(cell) for cell in row] for row in rows], ncols
    )


def paper_5_2():
    """Returns (ring, cbar, expected) for the golden example."""
    ring = GradedRing(QQ, ["x", "y"], relations=["x^2"], sequence=["y^2"])
    cbar = FreeComplex(
        ring,
        "R",
        (-2, 2),
        {
            2: (2, 2, 2),
            1: (1, 1),
            0: (0,),
            -1: (-2,),
            -2: (-3, -3),
        },
        {
            2: _matrix(ring, [["x", "0", "-y"], ["0", "y", "x"]]),
            1: _matrix(ring, [["x", "y"]]),
            0: _matrix(ring, [["x*y"]]),
            -1: _matrix(ring, [["x"], ["y"]]),
        },
        support="window",
    )
    expected = {
        "level": 1,
        "homotopies": {
            2: [["0", "-1", "0"]],
            1: [["0", "-x"]],
            0: [["0"], ["-x"]],
        },
        "product_displayed": {
            2: [
                ["x", "y", "0", "-1", "0"],
                ["-y^2", "0", "x", "0", "-y"],
                ["0", "-y^2", "0", "y", "x"],
            ],
            1: [
                ["x*y", "0", "x"],
                ["y^2", "x", "y"],
            ],
            0: [
                ["x", "0"],
                ["y", "-x"],
                ["-y^2", "x*y"],
            ],
        },
        "epsilon_displayed": {
            2: [["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"],
                ["0", "0", "0", "0", "1"]],
            1: [["0", "1", "0"], ["0", "0", "1"]],
            0: [["0", "1"]],
            -1: [["0", "0", "1"]],
        },
    }
    return ring, cbar, expected


def lifted_koszul_pair():
    """A genuine Q-complex and its reduction: the Koszul resolution of k
    over Q = k[u,v], reduced modulo f = uv.  Lifting the reduction back
    recovers a complex whose homotopies all vanish."""
    ring = GradedRing(QQ, ["u", "v"], sequence=["u*v"])
    G = FreeComplex(
        ring,
        "Q",
        (0, 2),
        {0: (0,), 1: (1, 1), 2: (2,)},
        {
            1: _matrix(ring, [["u", "v"]]),
            2: _matrix(ring, [["-v"], ["u"]]),
        },
        support="finite",
    )
    return ring, G


def periodic_factorization():
    """The two-periodic resolution of R/(u) over R = k[u,v]/(uv): the
    matrices alternate [u] and [v], and the homotopy solves to -1, the
    matrix factorization shape."""
    ring = GradedRing(QQ, ["u", "v"], sequence=["u*v"])
    n = 4
    twists = {m: (m,) for m in range(n + 1)}
    diffs = {}
    for m in range(1, n + 1):
        g = "u" if m % 2 else "v"
        diffs[m] = _matrix(ring, [[g]])
    cbar = FreeComplex(
        ring, "R", (0, n), twists, diffs, support="bounded_below"
    )
    return ring, cbar


EXAMPLES = {
    "paper-5-2": paper_5_2,
}


def get_example(name: str):
    try:
        return EXAMPLES[name]()
    except KeyError:
        raise InvalidInputError(
            f"unknown example {name!r}; available: {', '.join(sorted(EXAMPLES))}"
        ) from None
