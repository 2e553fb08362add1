"""The names that the benchmark's tracer (``perfbench/tracing.py``) probes.

The tracer patches library functions by name and reads some of their
arguments, so renaming a probed function or changing what it is handed
breaks the traced benchmark runs.  This test installs the tracer on the
package, makes one traced ``PolyMatrix.mul``, and checks that the span is
recorded with its counts and that uninstalling restores every function.  It
then traces the CLI pipeline that the benchmark times, ``resolve`` and
``verify --format json`` on the mixed fixture, and checks the spans that the
benchmark's own tests require of a traced instance.
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
        verified = _cli_json(["verify", "--ring", ring, "--complex", str(complex_path),
                              "--format", "json"])
        assert "koszul_lift.cli.main" in _wrapped() - untraced
    finally:
        tracer.uninstall()
    assert verified["ok"] is True
    spans = tracer.spans

    def under_homology(span):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == "complexes.homology_dims":
                return True
        return False

    assert any(s.name == "modp.rref_mod" for s in spans)
    assert any(s.name == "linalg.rank" and under_homology(s) for s in spans)
    assert _wrapped() == untraced
