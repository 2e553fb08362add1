"""numpy stays off the import path: importing the CLI does not load it, and
no command over Q, nor ``resolve`` over F_p, needs it.  Each case runs in a
fresh interpreter with ``sys.modules["numpy"] = None``, so any attempt to
import numpy raises ImportError."""

import json
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BLOCK_NUMPY = 'import sys\nsys.modules["numpy"] = None\n'
RUN_CLI = "from koszul_lift.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def run_without_numpy(code, *args):
    return subprocess.run(
        [sys.executable, "-c", BLOCK_NUMPY + code, *args],
        capture_output=True,
        text=True,
    )


def test_cli_import_does_not_load_numpy():
    out = run_without_numpy("import koszul_lift.cli")
    assert out.returncode == 0, out.stderr
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, koszul_lift.cli\nassert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_resolve_and_verify_over_q_without_numpy(tmp_path):
    ring = str(FIXTURES / "generic_ring.json")
    resolved = run_without_numpy(
        RUN_CLI, "resolve", "--ring", ring,
        "--presentation", str(FIXTURES / "generic_presentation.json"),
        "--length", "4", "--degree-bound", "5", "--format", "json",
    )
    assert resolved.returncode == 0, resolved.stderr
    complex_path = tmp_path / "complex.json"
    complex_path.write_text(json.dumps(json.loads(resolved.stdout)["complex"]))
    verified = run_without_numpy(
        RUN_CLI, "verify", "--ring", ring, "--complex", str(complex_path)
    )
    assert verified.returncode == 0, verified.stderr
    assert "result: PASS (8/8)" in verified.stdout


def test_resolve_over_fp_without_numpy():
    out = run_without_numpy(
        RUN_CLI, "resolve", "--ring", str(FIXTURES / "mixed_ring.json"),
        "--presentation", str(FIXTURES / "mixed_presentation.json"),
        "--length", "4", "--degree-bound", "12",
    )
    assert out.returncode == 0, out.stderr
