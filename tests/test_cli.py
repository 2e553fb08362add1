"""The command line interface, run as real subprocesses: exit codes,
golden text, and byte determinism of the JSON reports.

The JSON goldens in ``fixtures/`` are the outputs of the commands in
``RESOLVE_GOLDENS`` and, computed from those resolutions, of
``DERIVED_COMMANDS`` on ``DERIVED_GOLDENS``.  Regenerate them, resolve
outputs first, only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_cli.py --write
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RING = str(FIXTURES / "golden_ring.json")
COMPLEX = str(FIXTURES / "golden_complex.json")
RES_RING = str(FIXTURES / "residue_ring.json")
RES_PRES = str(FIXTURES / "residue_presentation.json")


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "koszul_lift.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_example_verify_passes():
    out = run_cli("example", "paper-5-2", "--verify")
    assert out.returncode == 0, out.stderr
    assert "golden values: PASS" in out.stdout
    assert "t^[1] at 2: 0 -1 0" in out.stdout


def test_example_unknown_name():
    out = run_cli("example", "nope")
    assert out.returncode == 2
    assert "unknown example" in out.stderr


def test_verify_golden_input():
    out = run_cli("verify", "--ring", RING, "--complex", COMPLEX)
    assert out.returncode == 0, out.stderr
    lines = [l for l in out.stdout.splitlines() if l.startswith("[")]
    assert lines, out.stdout
    assert all(l.startswith(("[PASS]", "[INFO]")) for l in lines)
    assert "result: PASS" in out.stdout


def test_verify_json_deterministic():
    a = run_cli("verify", "--ring", RING, "--complex", COMPLEX, "--format", "json")
    b = run_cli("verify", "--ring", RING, "--complex", COMPLEX, "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte identical
    payload = json.loads(a.stdout)
    assert payload["schema"] == "koszul-lift/1"
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_verify_detects_broken_complex(tmp_path):
    ring = {"field": "Q", "variables": ["x", "y"], "relations": [], "sequence": ["y^2"]}
    # twist says degree 2 but the entry has degree 1
    cpx = {
        "over": "R",
        "window": [0, 1],
        "support": "window",
        "twists": {"0": [0], "1": [2]},
        "diffs": {"1": [["x"]]},
    }
    rp = tmp_path / "ring.json"
    cp = tmp_path / "cpx.json"
    rp.write_text(json.dumps(ring))
    cp.write_text(json.dumps(cpx))
    out = run_cli("verify", "--ring", str(rp), "--complex", str(cp))
    assert out.returncode == 1
    assert "[FAIL] input complex structure" in out.stdout


def test_seeded_suite_deterministic():
    a = run_cli("verify", "--seed", "3", "--count", "3")
    b = run_cli("verify", "--seed", "3", "--count", "3")
    assert a.returncode == 0, a.stdout + a.stderr
    assert a.stdout == b.stdout
    assert "result: PASS (3/3)" in a.stdout


def test_seeded_suite_runs_the_full_battery(monkeypatch, capsys):
    # homology that disagrees between the product and the input must fail
    # the seeded suite, as it fails `verify` on a file
    from koszul_lift import cli

    monkeypatch.setattr(
        cli,
        "homology_dims",
        lambda C, positions, bound: {(positions[0], 0): int(C.over == "Q")},
    )
    assert cli.main(["verify", "--seed", "3", "--count", "2"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_homology_is_not_read_off_a_product_that_is_not_a_complex(monkeypatch):
    # minimize keeps homology only when d^2 = 0, so a product that fails the
    # d^2 check fails the homology row too, without being minimized
    from koszul_lift import cli
    from koszul_lift.algebra import PolyMatrix
    from koszul_lift.assembly import ProductComplex, assemble

    def assemble_with_a_wrong_entry(F, fam):
        P = assemble(F, fam)
        C = P.complex
        rows = [list(row) for row in C.diffs[1].rows]
        rows[0][1] = rows[0][1] * 2  # y -> 2y, so (d_1 d_2)[0, 1] = y^2
        diffs = {**C.diffs, 1: PolyMatrix.from_rows(rows)}
        broken = cli.FreeComplex(
            C.ring, C.over, C.window, C.twists, diffs, support=C.support
        )
        return ProductComplex(broken, P.lift, P.blocks, P.family)

    def no_minimize(C):
        raise AssertionError("minimize called on a product with d^2 != 0")

    monkeypatch.setattr(cli, "assemble", assemble_with_a_wrong_entry)
    monkeypatch.setattr(cli, "minimize", no_minimize)
    ring = cli._load_ring(RING)
    checks, _ = cli._verify_input(ring, cli._load_complex(ring, COMPLEX), 8)
    by_name = {c["name"]: c for c in checks}
    assert not by_name["product differential squares to zero"]["ok"]
    assert by_name["homology agreement up to degree 8"] == {
        "name": "homology agreement up to degree 8",
        "ok": False,
        "detail": "product is not a complex",
    }


def _finite_input(tmp_path, variables=("x", "y"), sequence=("y^2",), entry="x"):
    # R --entry--> R, support finite; by default R/(x) over R = Q[x,y]/(y^2),
    # whose product reaches position 2, past the input's window, where the
    # input is known to be 0
    ring = {
        "field": "Q",
        "variables": list(variables),
        "relations": [],
        "sequence": list(sequence),
    }
    cpx = {
        "over": "R",
        "window": [0, 1],
        "support": "finite",
        "twists": {"0": [0], "1": [1]},
        "diffs": {"1": [[entry]]},
    }
    rp = tmp_path / "ring.json"
    cp = tmp_path / "cpx.json"
    rp.write_text(json.dumps(ring))
    cp.write_text(json.dumps(cpx))
    return str(rp), str(cp)


def test_finite_codim2_input_passes_the_rank_row(tmp_path):
    # R --z--> R over R = Q[x,y,z]/(x^2, y^2): the finite product has total
    # rank 2^2 * 2 = 8, and the rank row reads it off the product alone
    ring, cpx = _finite_input(tmp_path, ["x", "y", "z"], ["x^2", "y^2"], "z")
    out = run_cli("verify", "--ring", ring, "--complex", cpx)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "[PASS] rank identities: 4 positions; totals 8 = 8\n" in out.stdout
    assert out.stdout.endswith("result: PASS (8/8)\n")
    out = run_cli("verify", "--ring", ring, "--complex", cpx, "--dim-q", "3")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unrecognized arguments" in out.stderr


def test_verify_checks_exactness_past_a_finite_input(tmp_path):
    ring, cpx = _finite_input(tmp_path)
    out = run_cli("verify", "--ring", ring, "--complex", cpx)
    assert out.returncode == 0, out.stdout + out.stderr
    assert (
        "[PASS] homology agreement up to degree 8: positions [0, 1], degrees <= 8"
        in out.stdout
    )


def test_homology_row_says_when_no_position_is_compared(tmp_path):
    # a window complex on [0, 2] has the one interior position 1, and its
    # codimension-one product the window [1, 2], with none: the row passes
    # but says that nothing was compared
    ring = {"field": "Q", "variables": ["x", "y"], "relations": [], "sequence": ["x^2"]}
    cpx = {
        "over": "R",
        "window": [0, 2],
        "support": "window",
        "twists": {"0": [0], "1": [1], "2": [2]},
        "diffs": {"1": [["x"]], "2": [["x"]]},
    }
    rp = tmp_path / "ring.json"
    cp = tmp_path / "cpx.json"
    rp.write_text(json.dumps(ring))
    cp.write_text(json.dumps(cpx))
    out = run_cli("verify", "--ring", str(rp), "--complex", str(cp))
    assert out.returncode == 0, out.stdout + out.stderr
    assert (
        "[PASS] homology agreement up to degree 8: no interior position in common\n"
        in out.stdout
    )
    out = run_cli("verify", "--ring", str(rp), "--complex", str(cp), "--format", "json")
    row = json.loads(out.stdout)["checks"][-1]
    assert row["detail"] == "no interior position in common"


def test_empty_sequence_is_described_as_empty(tmp_path):
    ring, cpx = _finite_input(tmp_path, sequence=())
    for command in ("lift", "assemble", "verify"):
        out = run_cli(command, "--ring", ring, "--complex", cpx)
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.startswith("ring: k = Q; P = k[x, y]; J = (0); f = ()\n")


def test_stray_homology_past_a_finite_input_fails(tmp_path, monkeypatch, capsys):
    # one homology pass over the product covers the shared positions and
    # those past the input; a mismatch is reported before stray homology
    from koszul_lift import cli

    ring, cpx = _finite_input(tmp_path)
    calls = []

    def product_homology_at(stray_positions):
        def homology_dims(C, positions, bound):
            calls.append((C.over, list(positions)))
            return {(n, 0): int(C.over == "Q" and n in stray_positions) for n in positions}

        return homology_dims

    monkeypatch.setattr(cli, "homology_dims", product_homology_at({2}))
    assert cli.main(["verify", "--ring", ring, "--complex", cpx]) == 1
    assert calls == [("Q", [0, 1, 2]), ("R", [0, 1])]
    assert (
        "[FAIL] homology agreement up to degree 8: "
        "stray homology beyond the input window: (2, 0)"
    ) in capsys.readouterr().out

    monkeypatch.setattr(cli, "homology_dims", product_homology_at({1, 2}))
    assert cli.main(["verify", "--ring", ring, "--complex", cpx]) == 1
    assert (
        "[FAIL] homology agreement up to degree 8: H_1 degree 0: input 0, product 1"
    ) in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_seeded_suite_needs_a_positive_count(count):
    out = run_cli("verify", "--seed", "1", "--count", count)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize("flag, value", [("--complex", "/nonexistent.json")])
def test_seeded_suite_rejects_file_input_flags(flag, value):
    # the seeded suite makes its own inputs: a flag it would ignore is an error
    out = run_cli("verify", "--seed", "1", "--count", "2", flag, value)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and flag in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--seed", "1", "--count", "0"], "--seed"),
        (["--seed", "1"], "--seed"),
        (["--count", "3"], "--count"),
    ],
)
def test_file_input_rejects_seeded_suite_flags(extra, flag):
    # verify on files would ignore --seed and --count: each is an error
    out = run_cli("verify", "--ring", RING, "--complex", COMPLEX, *extra)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and flag in out.stderr
    assert "Traceback" not in out.stderr


def test_malformed_input_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("verify", "--ring", str(bad), "--complex", COMPLEX)
    assert out.returncode == 2
    assert "error:" in out.stderr

    out2 = run_cli("lift", "--ring", str(tmp_path / "missing.json"), "--complex", COMPLEX)
    assert out2.returncode == 2

    # well-formed JSON with invalid ring or complex data
    golden_ring = json.loads(Path(RING).read_text())
    bad_rings = [
        {"field": 4},
        {"field": "4"},
        {"field": 2147483659},
        {"sequence": [7]},
        {"relations": [7]},
        {"relations": [["a", 1]]},
        {"relations": [[True, 0]]},  # not read as the exponent 1
        {"relations": "xy"},
        {"variables": 5},
        {"variables": "xy"},
    ]
    for change in bad_rings:
        bad.write_text(json.dumps({**golden_ring, **change}))
        out = run_cli("regularity", "--ring", str(bad))
        assert out.returncode == 2, change
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    cpx = json.loads(Path(COMPLEX).read_text())
    cpx["twists"]["a"] = [0]
    bad.write_text(json.dumps(cpx))
    out = run_cli("verify", "--ring", RING, "--complex", str(bad))
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    cpx = json.loads(Path(COMPLEX).read_text())
    key = min(cpx["diffs"], key=int)
    cpx["diffs"][key][0][0] = 7  # a number where a polynomial string belongs
    bad.write_text(json.dumps(cpx))
    out = run_cli("verify", "--ring", RING, "--complex", str(bad))
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    cpx = json.loads(Path(COMPLEX).read_text())
    cpx["diffs"]["1"] = ["xy"]  # a string row, not the row ["x", "y"]
    bad.write_text(json.dumps(cpx))
    out = run_cli("verify", "--ring", RING, "--complex", str(bad))
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    # integers in complex JSON: no bools, no truncated floats
    golden = json.loads(Path(COMPLEX).read_text())
    bad_integers = [
        {"window": [-2.7, 2]},
        {"window": [-2, True]},
        {"twists": {**golden["twists"], "-2": [-3.5, -3]}},
        {"twists": {**golden["twists"], "0": [False]}},
        {"twists": {**golden["twists"], "0.5": [0]}},
        {"diffs": {**golden["diffs"], "1.0": golden["diffs"]["1"]}},
    ]
    for change in bad_integers:
        bad.write_text(json.dumps({**golden, **change}))
        out = run_cli("verify", "--ring", RING, "--complex", str(bad))
        assert out.returncode == 2, change
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    bad_presentations = [
        {"twists": [0], "relations": [["x", 7]]},  # numeric cell
        {"twists": [0, 0], "relations": [["x", "y"], ["x"]]},  # ragged rows
        {"twists": [0], "relations": 5},  # scalar relations
        {"twists": [0, 0], "relations": [["x", "y"]]},  # rows != twists
        {"twists": ["a"], "relations": [["x"]]},  # twist not an integer
        {"twists": [0.9], "relations": [["x", "y"]]},  # not truncated to 0
        {"twists": [True], "relations": [["x", "y"]]},  # not read as 1
        {"twists": "0", "relations": [["x", "y"]]},  # not a list
    ]
    for pres in bad_presentations:
        bad.write_text(json.dumps(pres))
        out = run_cli(
            "resolve", "--ring", RES_RING, "--presentation", str(bad), "--length", "2"
        )
        assert out.returncode == 2, pres
        assert out.stderr.startswith("error:") and "Traceback" not in out.stderr

    # a ring, presentation or complex file whose top level is not an object
    for top in ([1, 2], "Q", None, 7):
        bad.write_text(json.dumps(top))
        for what, args in (
            ("ring", ("regularity", "--ring", str(bad))),
            (
                "presentation",
                ("resolve", "--ring", RES_RING, "--presentation", str(bad), "--length", "2"),
            ),
            ("complex", ("verify", "--ring", RING, "--complex", str(bad))),
        ):
            out = run_cli(*args)
            assert out.returncode == 2, (top, args)
            assert out.stderr == f"error: {what} JSON must be an object\n", (top, args)

    # the rank row takes every rank from the product: --dim-q is no option
    for args in (
        ("--ring", RING, "--complex", COMPLEX, "--dim-q", "2"),
        ("--seed", "1", "--count", "1", "--dim-q", "-1"),
    ):
        out = run_cli("verify", *args)
        assert out.returncode == 2, args
        assert out.stdout == ""
        assert "unrecognized arguments: --dim-q" in out.stderr, args

    # "lift" must be a JSON boolean: the string "no" is not read as true
    for flag in ("no", 0, None):
        bad.write_text(json.dumps({**golden, "lift": flag}))
        out = run_cli("verify", "--ring", RING, "--complex", str(bad))
        assert out.returncode == 2, flag
        assert out.stderr == "error: complex JSON lift must be true or false\n", flag


def test_wrong_degree_entry_is_exit_2_in_lift_and_assemble(tmp_path):
    cpx = json.loads((FIXTURES / "resolve_residue_length5.json").read_text())["complex"]
    cpx["diffs"]["2"][0][0] = "x^3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cpx))
    message = "entry x^3 at (0,0) of d_2 should be homogeneous of degree 1"
    for cmd in ("lift", "assemble"):
        out = run_cli(cmd, "--ring", RES_RING, "--complex", str(bad))
        assert out.returncode == 2, (cmd, out.stderr)
        assert out.stderr == f"error: {message}\n"
    out = run_cli("verify", "--ring", RES_RING, "--complex", str(bad))
    assert out.returncode == 1
    assert f"[FAIL] input complex structure: {message}" in out.stdout


def test_unsolvable_homotopy_system_is_a_failed_row(tmp_path, capsys):
    # f = (x^2, x*y) is not regular, and the resolution of coker(x, y) over
    # R has no homotopy system at level 2: verify reports a FAIL row and
    # stops there, as it does for a failed structure check
    from koszul_lift import cli

    ring = tmp_path / "ring.json"
    ring.write_text(
        json.dumps({"field": "Q", "variables": ["x", "y"], "sequence": ["x^2", "x*y"]})
    )
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"twists": [0], "relations": [["x", "y"]]}))
    resolution = tmp_path / "resolution.json"
    argv = ["resolve", "--ring", str(ring), "--presentation", str(pres)]
    argv += ["--length", "4", "--degree-bound", "8"]
    assert cli.main(argv + ["--format", "json", "--out", str(resolution)]) == 0
    cpx = tmp_path / "complex.json"
    cpx.write_text(json.dumps(json.loads(resolution.read_text())["complex"]))

    assert cli.main(["verify", "--ring", str(ring), "--complex", str(cpx)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith(
        "\n\n[PASS] input complex structure\n"
        "[FAIL] sequence regular up to degree 8: Koszul homology at (1, 3)\n"
        "[FAIL] homotopy system solvable to level 2: homotopy system "
        "inconsistent at level 2, position 3, entry (0,1); the input is not "
        "a lift of an R-complex\n"
        "\n"
        "result: FAIL (1/3)\n"
    )

    argv = ["verify", "--ring", str(ring), "--complex", str(cpx), "--format", "json"]
    assert cli.main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [c["ok"] for c in payload["checks"]] == [True, False, False]
    assert payload["labels"] == [] and payload["ok"] is False


@pytest.mark.parametrize(
    "content",
    [
        '{"field": "\u00b2", "variables": ["x"], "sequence": ["x"]}'.encode(),
        b'{"field": "Q", "variables": ["\xff"]}',
        b"[" * 100000,
    ],
    ids=["superscript-field", "invalid-utf8", "deep-nesting"],
)
def test_malformed_file_is_exit_2_in_process(tmp_path, capsys, content):
    # a superscript digit passes str.isdigit but not int; bytes that are
    # not UTF-8 and nesting too deep to parse are no JSON either
    from koszul_lift import cli

    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert cli.main(["regularity", "--ring", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, kind", [("Q", "rational"), (32003, "coefficient")], ids=["QQ", "F32003"]
)
def test_literal_past_the_int_digit_limit_is_exit_2(tmp_path, field, kind):
    # a valid coefficient with more digits than Python converts from a
    # string (sys.get_int_max_str_digits): the error names that limit and
    # shows the start of the literal, not all of its digits
    limit = sys.get_int_max_str_digits()
    literal = "1" + "0" * (limit + 700)
    bad = tmp_path / "ring.json"
    ring = {"field": field, "variables": ["x"], "relations": [], "sequence": [literal + "*x"]}
    bad.write_text(json.dumps(ring))
    out = run_cli("regularity", "--ring", str(bad))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == (
        f"error: bad {kind} literal '{literal[:20]}'... ({len(literal)} characters): "
        f"more digits than Python's limit of {limit} for integer string conversion "
        "(sys.set_int_max_str_digits)\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coefficient_past_the_int_digit_limit_on_output_is_exit_2(tmp_path, fmt):
    # two valid literals below the limit whose product is past it: the
    # ring reads, and the writer of f's coefficient fails with a typed error
    limit = sys.get_int_max_str_digits()
    nines = "9" * (limit - 300)
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(
        {"field": "Q", "variables": ["x", "y"], "relations": [], "sequence": [f"{nines}*{nines}*x^2"]}
    ))
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"twists": [0], "relations": [["x", "y"]]}))
    out = run_cli(
        "resolve", "--ring", str(ring), "--presentation", str(pres), "--length", "2",
        "--format", fmt,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == (
        "error: cannot write a coefficient with more digits than Python's limit of "
        f"{limit} for integer string conversion (sys.set_int_max_str_digits)\n"
    )


def test_lift_json_payload():
    out = run_cli("lift", "--ring", RING, "--complex", COMPLEX, "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["command"] == "lift"
    assert payload["level"] == 1
    fam = payload["family"]
    assert fam["maps"]["[1]"]["2"] == [["0", "-1", "0"]]


def test_assemble_text_golden():
    out = run_cli("assemble", "--ring", RING, "--complex", COMPLEX)
    assert out.returncode == 0
    assert "P_2 = F_2^3 + F_1*e1^2" in out.stdout
    assert "d_2:" in out.stdout
    assert "-y^2" in out.stdout


@pytest.mark.parametrize(
    "command, flags",
    [
        ("assemble", ["--level", "1"]),
        ("assemble", ["--codim1"]),
        ("verify", ["--level", "1"]),
    ],
)
def test_assemble_and_verify_take_the_level_from_the_ring(command, flags):
    # a product complex needs the full homotopy system, to level c
    out = run_cli(command, "--ring", RING, "--complex", COMPLEX, *flags)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unrecognized arguments" in out.stderr and flags[0] in out.stderr


def test_lift_stops_at_a_given_level():
    out = run_cli("lift", "--ring", RING, "--complex", COMPLEX, "--level", "0")
    assert out.returncode == 0, out.stderr
    assert "solved homotopies to level 0" in out.stdout
    assert "t^" not in out.stdout


@pytest.mark.parametrize(
    "command, args",
    [
        ("lift", ["--complex", COMPLEX]),
        ("assemble", ["--complex", COMPLEX]),
        ("resolve", ["--presentation", RES_PRES, "--length", "2"]),
        ("regularity", []),
    ],
)
def test_missing_ring_is_a_usage_error(command, args):
    out = run_cli(command, *args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "--ring" in out.stderr and "Traceback" not in out.stderr


def test_assemble_out_file(tmp_path):
    dest = tmp_path / "product.json"
    out = run_cli(
        "assemble",
        "--ring",
        RING,
        "--complex",
        COMPLEX,
        "--format",
        "json",
        "--out",
        str(dest),
    )
    assert out.returncode == 0
    assert out.stdout == ""
    payload = json.loads(dest.read_text())
    assert payload["product"]["window"] == [-1, 2]
    assert payload["blocks"]["2"][0]["subset"] == []


def test_resolve_text():
    out = run_cli(
        "resolve",
        "--ring",
        RES_RING,
        "--presentation",
        RES_PRES,
        "--length",
        "5",
    )
    assert out.returncode == 0
    assert "b_0 = 1, b_1 = 2, b_2 = 3, b_3 = 4, b_4 = 5, b_5 = 6" in out.stdout


# (name, length, degree bound) of each ``resolve`` golden
RESOLVE_GOLDENS = [("residue", 5, 12), ("mixed", 4, 12), ("generic", 4, 5), ("rational", 4, 5)]
# (name, length) of the resolutions that the derived goldens take as input
DERIVED_GOLDENS = [(name, length) for name, length, _ in RESOLVE_GOLDENS]
DERIVED_COMMANDS = ["lift", "assemble", "verify"]


def _resolve_golden(name, length, bound):
    """The golden file of ``resolve`` on the fixture ``name`` and the
    command's run."""
    out = run_cli(
        "resolve",
        "--ring",
        str(FIXTURES / f"{name}_ring.json"),
        "--presentation",
        str(FIXTURES / f"{name}_presentation.json"),
        "--length",
        str(length),
        "--degree-bound",
        str(bound),
        "--format",
        "json",
    )
    return FIXTURES / f"resolve_{name}_length{length}.json", out


def _derived_golden(command, name, length, tmp_path):
    """The golden file of ``command`` on the resolution in the ``resolve``
    golden of ``name`` and the command's run."""
    resolution = FIXTURES / f"resolve_{name}_length{length}.json"
    complex_path = tmp_path / f"{name}_complex.json"
    complex_path.write_text(json.dumps(json.loads(resolution.read_text())["complex"]))
    out = run_cli(
        command,
        "--ring",
        str(FIXTURES / f"{name}_ring.json"),
        "--complex",
        str(complex_path),
        "--format",
        "json",
    )
    return FIXTURES / f"{command}_{name}_length{length}.json", out


@pytest.mark.parametrize(
    "name, length, bound",
    RESOLVE_GOLDENS,
    ids=[f"{name}-{length}" for name, length, _ in RESOLVE_GOLDENS],
)
def test_resolve_json_golden(name, length, bound):
    # the whole payload, differentials included: a change in which syzygy
    # generators are chosen shows up here, not only a change of Betti numbers.
    # "generic" and "rational" are the non-monomial sequences over Q, so
    # they pin the Fraction elimination; only "rational" has coefficients
    # other than +-1, so only it pins the denominators end to end
    golden, out = _resolve_golden(name, length, bound)
    assert out.returncode == 0, out.stderr
    assert out.stdout == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", DERIVED_COMMANDS)
@pytest.mark.parametrize("name, length", DERIVED_GOLDENS)
def test_lift_and_assemble_json_golden(tmp_path, command, name, length):
    # lift and assemble compose matrices with PolyMatrix.mul: every homotopy
    # and every product block is pinned, not only that the checks pass.
    # verify pins every check's name and detail line
    golden, out = _derived_golden(command, name, length, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == golden.read_text(encoding="utf-8")


def test_regularity_pass_and_fail(tmp_path):
    out = run_cli("regularity", "--ring", RING)
    assert out.returncode == 0
    assert out.stdout.startswith("[PASS]")

    ring = {
        "field": "Q",
        "variables": ["x", "y"],
        "relations": [],
        "sequence": ["x*y", "x"],
    }
    rp = tmp_path / "ring.json"
    rp.write_text(json.dumps(ring))
    out2 = run_cli("regularity", "--ring", str(rp))
    assert out2.returncode == 1
    assert out2.stdout.startswith("[FAIL]")


def test_vandermonde_command():
    out = run_cli("vandermonde", "2", "7", "4")
    assert out.returncode == 0
    assert "= 35; C(7,4) = 35: PASS" in out.stdout
    # no term of the sum is in range: the empty sum reads 0
    for n in ("-1", "5"):
        out = run_cli("vandermonde", "2", "3", n)
        assert out.returncode == 0
        assert f"sum_i C(2,i)*C(1,{n}-i) = 0 = 0; C(3,{n}) = 0: PASS" in out.stdout


def test_usage_error_is_exit_2():
    out = run_cli("verify")  # no ring/complex and no seed
    assert out.returncode == 2


@pytest.mark.skipif(
    shutil.which("koszul-lift") is None, reason="console script not installed"
)
def test_console_script():
    out = subprocess.run(
        ["koszul-lift", "example", "paper-5-2", "--verify"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "golden values: PASS" in out.stdout


def _write_golden(golden, out):
    if out.returncode != 0:
        sys.exit(f"{golden.name}: exit {out.returncode}\n{out.stderr}")
    golden.write_text(out.stdout, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli.py --write")
    for params in RESOLVE_GOLDENS:
        _write_golden(*_resolve_golden(*params))
    with tempfile.TemporaryDirectory() as tmp:
        for command in DERIVED_COMMANDS:
            for name, length in DERIVED_GOLDENS:
                _write_golden(*_derived_golden(command, name, length, Path(tmp)))
