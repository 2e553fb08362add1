"""The names that the benchmark's tracer (``perfbench/tracing.py``) probes.

The tracer patches library functions by name and reads some of their
arguments, so renaming a probed function or changing what it is handed
breaks the traced benchmark runs.  This test installs the tracer on the
package, makes one traced ``PolyMatrix.mul``, and checks that the span is
recorded with its counts and that uninstalling restores every function.  It
then traces the CLI pipeline that the benchmark times, ``resolve`` and
``verify --format json`` on the mixed fixture, and checks the spans that the
benchmark's own tests require of a traced instance, and that the homotopy
solve still reaches the F_p elimination kernel.  Of verify's three homology
computations, the one over R ranks list rows through ``linalg.rank``, whose
cells are the benchmark's ``complexes.homology_dims.cells``; the Koszul
check and the product, both over Q, rank sparse columns and build no list
row (neither ``linalg.rank`` nor ``complexes.graded_matrix_rows``).
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import koszul_lift
from koszul_lift import cli
from koszul_lift.algebra import GradedRing, PolyMatrix
from koszul_lift.fields import GF

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
FIXTURES = ROOT / "fixtures"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_mul_and_uninstalls():
    tracer = _load_tracing().Tracer()
    ring = GradedRing(GF(7), ["x", "y"], relations=["x^2"])
    a = PolyMatrix.from_rows([[ring.parse("x"), ring.zero], [ring.one, ring.parse("y")]])
    tracer.install(koszul_lift)
    try:
        assert hasattr(cli.main, "__wrapped__")
        product = a.mul(a, ring)
    finally:
        tracer.uninstall()
    assert product == PolyMatrix.from_rows(
        [[ring.zero, ring.zero], [ring.parse("x + y"), ring.parse("y^2")]]
    )
    (span,) = tracer.spans
    assert span.name == "algebra.PolyMatrix.mul"
    assert "triples" in span.attrs
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(PolyMatrix.mul, "__wrapped__")


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0
    return json.loads(out.getvalue())


def _wrapped():
    """Every attribute of a package module, or of a class defined there,
    that carries ``__wrapped__``; some do without the tracer (dataclass
    reprs, for one)."""
    found = set()
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "koszul_lift":
            continue
        owners = [(name, module)] + [
            (f"{name}.{k}", v) for k, v in vars(module).items()
            if isinstance(v, type) and v.__module__ == name
        ]
        for label, owner in owners:
            # getattr, not vars: a classmethod object carries __wrapped__
            found |= {
                f"{label}.{k}" for k in vars(owner)
                if hasattr(getattr(owner, k), "__wrapped__")
            }
    return found


def _ancestors(spans, span):
    while span.parent is not None:
        yield span.parent
        span = spans[span.parent]


def test_tracer_spans_the_resolve_and_verify_pipeline(tmp_path):
    ring = str(FIXTURES / "mixed_ring.json")
    tracer = _load_tracing().Tracer()
    untraced = _wrapped()
    tracer.install(koszul_lift)
    try:
        resolved = _cli_json([
            "resolve", "--ring", ring,
            "--presentation", str(FIXTURES / "mixed_presentation.json"),
            "--length", "4", "--degree-bound", "9", "--format", "json",
        ])
        complex_path = tmp_path / "complex.json"
        complex_path.write_text(json.dumps(resolved["complex"]))
        first_verify_span = len(tracer.spans)
        verified = _cli_json(["verify", "--ring", ring, "--complex", str(complex_path),
                              "--format", "json"])
        assert "koszul_lift.cli.main" in _wrapped() - untraced
    finally:
        tracer.uninstall()
    assert verified["ok"] is True
    spans = tracer.spans

    def under(span, name):
        return any(spans[p].name == name for p in _ancestors(spans, span))

    # the homotopy solve eliminates only the degree groups with a nonzero
    # residual; the mixed fixture has some, and their rref runs in the kernel
    assert any(
        s.name == "modp.rref_mod" and under(s, "homotopy.solve_homotopies") for s in spans
    )
    # verify takes homology three times: the Koszul check and the product,
    # over Q, rank sparse columns; the input over R ranks on linalg.rank,
    # whose cells are the benchmark's complexes.homology_dims.cells
    homology = [s for s in spans[first_verify_span:] if s.name == "complexes.homology_dims"]
    assert len(homology) == 3

    def below(name):
        return {p for s in spans if s.name == name for p in _ancestors(spans, s)}

    # the Koszul check runs under check_regular_up_to; of the other two, verify
    # takes the product's homology first, then the input's
    (koszul,) = [s for s in homology if under(s, "koszul.check_regular_up_to")]
    product, over_r = [s for s in homology if s is not koszul]
    ranked, dense = below("linalg.rank"), below("complexes.graded_matrix_rows")
    assert over_r.id in ranked
    assert not {koszul.id, product.id} & (ranked | dense)
    assert _wrapped() == untraced
