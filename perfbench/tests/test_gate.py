"""Self-tests of the benchmark's exactness gate, workload generation and
tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from koszul_lift import cli  # noqa: E402


def _inputs(name, field, variables, relations, sequence, length, bound):
    w = workloads.Workload(
        name=name,
        field=field,
        variables=tuple(variables),
        relations=tuple(relations),
        sequence=tuple(sequence),
        length=length,
        resolve_bound=bound,
        verify_bound=bound,
    )
    return workloads.generate(w, seed=0)


def _run(inputs, tmp_path, tracer=None, lib=None):
    files = run.write_inputs(inputs, tmp_path)
    if tracer is None:
        return run.run_instance(cli, inputs, files)
    tracer.install(lib)
    try:
        return run.run_instance(cli, inputs, files)
    finally:
        tracer.uninstall()


def test_oracle_ungraded_residue_series():
    # k[x,y,z,w]/(x^2, y^2, z^3, w^2): sum_j beta_{i,j} = C(i+3, 3)
    betti = gate.tate_betti(4, (2, 2, 2, 3), 8)
    for i in range(9):
        assert sum(c for (n, _), c in betti.items() if n == i) == comb(i + 3, 3)


def test_oracle_graded_hypersurface():
    # k over k[x]/(x^5): one generator in degrees 0, 1, 5, 6, 10, 11, ...
    assert gate.tate_betti(1, (5,), 5) == {
        (0, 0): 1, (1, 1): 1, (2, 5): 1, (3, 6): 1, (4, 10): 1, (5, 11): 1,
    }


def test_gate_rejects_truncated_resolution(tmp_path):
    # Degree bound 3 cannot see the degree-5 syzygy of k over k[x]/(x^5):
    # resolve returns F_2 = 0 and verify passes, so only the oracle sees it.
    inputs = _inputs("trunc", 32003, "x", (), [((1, (5,)),)], 3, 3)
    sample = _run(inputs, tmp_path)
    assert "beta_2,5: expected 1, got 0" in sample["problems"]
    assert not any(p.startswith("verify") for p in sample["problems"])


def test_gate_accepts_correct_resolution(tmp_path):
    inputs = _inputs(
        "small", 32003, "xy", [(0, 2)], [((1, (3, 0)),)], 3, 8,
    )
    sample = _run(inputs, tmp_path)
    assert sample["problems"] == []
    assert sample["pipeline_s"] >= sample["resolve_s"] + sample["verify_s"]


def test_timed_instance_is_scaled_by_its_calibration(tmp_path):
    inputs = _inputs(
        "small", 32003, "xy", [(0, 2)], [((1, (3, 0)),)], 3, 8,
    )
    sample = run.timed_instance(cli, inputs, run.write_inputs(inputs, tmp_path))
    assert sample["problems"] == []
    assert sample["calibration_s"] > 0
    assert run.at_reference_speed(sample["pipeline_s"], run.CAL_REF_S) == sample["pipeline_s"]
    assert run.at_reference_speed(1.0, 2 * run.CAL_REF_S) == 0.5


def test_verify_failure_is_counted():
    assert gate.verify_problems(1, {"ok": False, "checks": [{"name": "x", "ok": False}]})
    assert gate.verify_problems(0, None)
    assert gate.verify_problems(0, {"ok": True, "checks": []}) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_inputs_are_deterministic(name):
    w = workloads.WORKLOADS[name]
    runs = [workloads.generate(w, seed) for seed in range(10)]
    again = workloads.generate(w, 3)
    assert (again.ring, again.presentation) == (runs[3].ring, runs[3].presentation)
    assert len({json.dumps(i.ring) for i in runs}) > 1
    assert len({i.ci_degrees for i in runs}) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_only_scale_variables(name):
    # Same monomials in every seed: the seed changes coefficients, never
    # which terms occur, so the elimination work is the same.
    def support(ring):
        return [sorted(t.split("*")[-1] for t in f.replace(" - ", " + ").split(" + "))
                for f in ring["sequence"]]

    w = workloads.WORKLOADS[name]
    rings = [workloads.generate(w, seed).ring for seed in range(10)]
    assert all(r["relations"] == rings[0]["relations"] for r in rings)
    assert all(support(r) == support(rings[0]) for r in rings)


def test_qq_seeds_are_regular():
    from koszul_lift import GradedRing, check_regular_up_to

    w = workloads.WORKLOADS["generic-qq"]
    for seed in range(4):
        ring = GradedRing.from_json_dict(workloads.generate(w, seed).ring)
        assert check_regular_up_to(ring, w.resolve_bound).ok


def test_traced_instance_reports_every_layer(tmp_path):
    import koszul_lift

    inputs = _inputs(
        "small", 32003, "xyz", [], [((1, (2, 0, 0)),), ((1, (0, 2, 0)),)], 3, 5,
    )
    tracer = tracing.Tracer()
    tracer.instance = 0
    sample = _run(inputs, tmp_path, tracer, koszul_lift)
    assert sample["problems"] == []
    assert not hasattr(cli.main, "__wrapped__")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    metrics = tracing.layer_metrics(
        tracer, {0: sample["pipeline_s"]}, [sample["pipeline_s"]], names
    )
    assert list(metrics) == names
    assert metrics["cli.main.self_s"] > 0
    assert metrics["modp.rref_mod.calls"] > 0
    assert metrics["linalg.rref_qq.calls"] == 0
    assert metrics["complexes.homology_dims.cells"] > 0
    assert 0 < metrics["linalg.pivot_ratio"] <= 1
    assert metrics["trace.untraced_s"] >= 0
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in top] == ["cli.main", "cli.main"]
