"""Seeded golden for the ``verify`` suite that CI runs.

``koszul-lift verify --seed 7 --count 10`` draws ten random inputs and runs
the full check battery on each.  The fixture stores the exit code and the
SHA-256 of the standard output of that command, in JSON and in text, so any
change of what the suite prints shows, not only a change between two runs.

Regenerate the fixture only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_verify_golden.py --write
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "verify_seeded_digests.json"

COMMANDS = {
    "json": ["verify", "--seed", "7", "--count", "10", "--format", "json"],
    "text": ["verify", "--seed", "7", "--count", "10"],
}


def _run(args) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "koszul_lift.cli", *args],
        capture_output=True,
        check=False,
    )
    return {"exit": out.returncode, "stdout_sha256": hashlib.sha256(out.stdout).hexdigest()}


def _digests() -> dict:
    return {name: {"args": args, **_run(args)} for name, args in COMMANDS.items()}


def test_seeded_verify_matches_golden():
    assert _digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_verify_golden.py --write")
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
