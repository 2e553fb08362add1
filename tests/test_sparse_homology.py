"""``homology_dims`` over Q ranks the sparse columns of ``graded_columns``
(``linalg.pivot_columns``).  It must give the dimensions of the dense
list-row path, ``oracles.dense_homology_dims``, in F_7, F_32003 and Q: on
the minimized products of the benchmark's workloads, on seeded complexes
with homology and their products, and on Koszul complexes of regular and
of non-regular sequences, where the regularity check must also read the
same report through either path."""

import dataclasses
import importlib.util
import sys
from pathlib import Path
from random import Random

import pytest

from koszul_lift import complexes
from koszul_lift.algebra import GradedRing
from koszul_lift.assembly import assemble
from koszul_lift.complexes import homology_dims, lift_to_Q, minimize
from koszul_lift.fields import GF, QQ
from koszul_lift.homotopy import solve_homotopies
from koszul_lift.koszul import check_regular_up_to, koszul_complex
from koszul_lift.resolve import Presentation, resolve_over_R

from oracles import dense_homology_dims, finite_complex_cases

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {"F7": 7, "F32003": 32003, "QQ": "Q"}


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _minimized_product(K):
    F = lift_to_Q(K)
    return minimize(assemble(F, solve_homotopies(F, K.ring.c)).complex)


def _dims_agree(C, positions, bound):
    got = homology_dims(C, positions, bound)
    assert got == dense_homology_dims(C, positions, bound)
    return got


@pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_workload_products_match_the_dense_rows(name, field):
    # the benchmark's input, read in each field; the product resolves the
    # residue field, so its only homology is H_0 = k in degree 0
    w = dataclasses.replace(WORKLOADS.WORKLOADS[name], field=field)
    for seed in (1, 2, 3):
        inputs = WORKLOADS.generate(w, seed)
        ring = GradedRing.from_json_dict(inputs.ring)
        presentation = Presentation.from_json_dict(ring, inputs.presentation)
        C = resolve_over_R(ring, presentation, w.length, w.resolve_bound)
        M = _minimized_product(C)
        dims = _dims_agree(M, M.interior_positions(), w.verify_bound)
        assert {key for key, v in dims.items() if v} == {(0, 0)}
        assert dims[(0, 0)] == 1


def test_finite_complex_cases_match_the_dense_rows():
    # complexes with homology above the bottom, over R, and the minimized
    # products over Q built from them, in F_32003 and Q
    seen = set()
    for ring, K in finite_complex_cases(Random(4), 50):
        positions = K.interior_positions()
        hk = _dims_agree(K, positions, 6)
        hm = _dims_agree(_minimized_product(K), positions, 6)
        assert {k: v for k, v in hm.items() if v} == {k: v for k, v in hk.items() if v}
        if any(v for (n, _), v in hm.items() if n > positions[0]):
            seen.add(ring.field.char)
    assert seen == {0, 32003}


KOSZUL_CASES = [
    # (variables, relations, sequence, first failure of regularity); each
    # non-regular one has a Koszul cycle of degree 3 that is no boundary,
    # y * x^2 - x * x*y for (x^2, x*y)
    ("xy", [], ["x^2", "y^2"], None),
    ("xyzw", ["w^2"], ["x^2", "y^2", "z^3"], None),
    ("xyz", [], ["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"], None),
    ("xyz", ["z^3"], ["2*x^2 + 3*y*z", "3*y^2 - 5*x*z"], None),
    ("xy", [], ["x^2", "x*y"], (1, 3)),
    ("xyz", [], ["x*y", "x*z", "y*z"], (1, 3)),
    ("xy", ["y^3"], ["x^2", "y^2"], (1, 3)),
    ("xyz", [], ["x^2 + y^2", "x*y", "x^3"], (1, 3)),
]


@pytest.mark.parametrize("field", [GF(7), GF(32003), QQ], ids=list(FIELDS))
@pytest.mark.parametrize("variables, relations, sequence, first_failure", KOSZUL_CASES)
def test_koszul_homology_and_regularity_match_the_dense_rows(
    monkeypatch, field, variables, relations, sequence, first_failure
):
    ring = GradedRing(field, list(variables), relations=relations, sequence=sequence)
    K = koszul_complex(ring)
    dims = _dims_agree(K, range(0, ring.c + 1), 8)
    assert dims[(0, 0)] == 1
    report = check_regular_up_to(ring, 8)
    assert (report.ok, report.first_failure) == (first_failure is None, first_failure)
    # check_regular_up_to reads homology_dims from complexes when called
    monkeypatch.setattr(complexes, "homology_dims", dense_homology_dims)
    dense = check_regular_up_to(ring, 8)
    assert (report.ok, report.first_failure, report.dims) == (
        dense.ok, dense.first_failure, dense.dims
    )
