"""The names that the benchmark's tracer (``perfbench/tracing.py``) probes.

The tracer patches library functions by name and reads some of their
arguments, so renaming a probed function or changing what it is handed
breaks the traced benchmark runs.  This test installs the tracer on the
package, makes one traced ``PolyMatrix.mul``, and checks that the span is
recorded with its counts and that uninstalling restores every function.
"""

import importlib.util
from pathlib import Path

import koszul_lift
from koszul_lift import cli
from koszul_lift.algebra import GradedRing, PolyMatrix
from koszul_lift.fields import GF

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
