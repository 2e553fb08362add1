"""Seeded golden for ``resolve_over_R``: which generators each step picks.

Every case is a seeded random presentation over a seeded random ring
(``koszul_lift.samples``), over F_32003, F_7 or Q with c = 0, 1 or 2, plus
the zero module.  The fixture stores the SHA-256 of each resolution's
``to_json_dict()`` as sorted-key JSON (or of the error it raised), so any
change of generator choice, basis order or normal form shows.

Regenerate the fixture only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_resolve_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path
from random import Random

from koszul_lift.algebra import PolyMatrix
from koszul_lift.errors import KoszulLiftError
from koszul_lift.fields import GF, QQ
from koszul_lift.resolve import Presentation, resolve_over_R
from koszul_lift.samples import random_presentation, random_regular_ring

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "resolve_seeded_digests.json"

FIELDS = {"F_32003": GF(32003), "F_7": GF(7), "Q": QQ}
SEEDS = range(6)
LENGTH = 4
DEGREE_BOUND = 9


def _cases():
    """(name, ring, presentation) for every golden case."""
    for fname, field in FIELDS.items():
        for c in (0, 1, 2):
            for seed in SEEDS:
                rng = Random(f"{fname}/{c}/{seed}")
                ring = random_regular_ring(rng, field, 3, c)
                pres = random_presentation(rng, ring, 3, 3)
                yield f"{fname}/c{c}/seed{seed}", ring, pres
        ring = random_regular_ring(Random(f"{fname}/zero"), field, 3, 2)
        yield f"{fname}/zero", ring, Presentation((), PolyMatrix(0, 0, []))


def _digest(ring, pres) -> str:
    try:
        out = resolve_over_R(ring, pres, LENGTH, DEGREE_BOUND).to_json_dict()
    except KoszulLiftError as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    text = json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> dict:
    return {name: _digest(ring, pres) for name, ring, pres in _cases()}


def test_seeded_resolutions_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden["length"] == LENGTH and golden["degree_bound"] == DEGREE_BOUND
    assert _digests() == golden["digests"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_resolve_golden.py --write")
    data = {"length": LENGTH, "degree_bound": DEGREE_BOUND, "digests": _digests()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
