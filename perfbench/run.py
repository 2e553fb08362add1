"""End-to-end pipeline benchmark for koszul-lift.

    python3 perfbench/run.py --workload residue-fp --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
instance is exactly what a user runs: ``koszul-lift resolve`` on the
workload's ring and the presentation of the residue field, then
``koszul-lift verify`` on that resolution, both through
``koszul_lift.cli.main`` with JSON output, in this single-threaded process
(``KOSZUL_LIFT_THREADS`` is removed from the environment).  Each CLI call
parses a fresh ring, so every instance starts with cold ``GradedRing``
caches, as a user's does.  Instances repeat, at least once, while one more
is expected to end within ``--seconds``.

Every instance passes the gate (``gate.py``: Tate-Gulliksen Betti numbers,
exit codes, ``"ok": true`` from verify) or counts as failed; any failure makes
the run exit 1.

``--trace 0`` reports the end-to-end metrics: medians over the instances of
``pipeline_s``, ``resolve_s`` and ``verify_s``; ``setup_s`` (import plus
input generation), the median of this process's own set-up and of
``SETUP_PROBES`` fresh processes that repeat it; and ``peak_rss_mib``.

On a shared host the speed of a core can drift by a factor of two within
minutes (seen on a 2-vCPU VM), and the library's run time drifts with it.
So every timing in seconds is given at a fixed reference speed:
``calibrate`` times a fixed piece of work of the workload's own kind (its
``calibration``) just before and just after each timed instance, and the
instance's wall times are scaled by ``CAL_REF_S`` over the mean of those
two calibration times.  Each set-up time is scaled likewise by a mixed
calibration taken right after it, in the same process.  The raw wall
medians and the host factor (calibration median over ``CAL_REF_S``) are
printed beside the metrics and kept in the record.

``--trace 1`` alternates untraced and traced instances and reports the
per-layer metrics.  Metric names and units are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit and the run environment.  A record of the
run (environment, inputs, per-instance samples and, when traced, every span)
is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

from gate import resolve_problems, verify_problems
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 120
# Seconds either kind of ``calibrate`` takes between instances on a quiet
# host (median on a 2-vCPU Intel Xeon VM, Python 3.11 with numpy 2.4);
# timings are reported at this speed.
CAL_REF_S = 0.05
CAL_P = 32003


def _fractions(n: int) -> Fraction:
    f = Fraction(0)
    for i in range(1, n):
        f += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 1, i % 13 + 1)
    return f


def calibrate(kind: str) -> float:
    """Wall seconds of a fixed piece of work of the given kind, which takes
    about ``CAL_REF_S`` on a quiet host.  ``"fraction"`` is Fraction
    arithmetic alone, as in exact elimination over Q; ``"mixed"`` is
    modular integer arithmetic on dicts, some Fraction arithmetic, and the
    row operations of a dense elimination mod p in numpy.  Call it only
    after the library is imported, so that importing numpy is not timed."""
    import numpy as np

    start = time.perf_counter()
    if kind == "fraction":
        _fractions(6500)
        return time.perf_counter() - start
    acc: dict = {}
    s = 0
    for i in range(40000):
        k = i * 7919 % 1009
        acc[k] = acc.get(k, 0) + i
        s = (s * 31 + k) % CAL_P
    _fractions(2500)
    a = np.arange(240 * 240, dtype=np.int64).reshape(240, 240) * 7919 % CAL_P
    for r in range(25):
        a[r + 1:, r:] = (a[r + 1:, r:] - np.outer(a[r + 1:, r], a[r, r:])) % CAL_P
    return time.perf_counter() - start


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    return seconds * CAL_REF_S / calibration_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def write_inputs(inputs, work: Path) -> dict:
    paths = {"ring": work / "ring.json", "presentation": work / "presentation.json"}
    paths["ring"].write_text(json.dumps(inputs.ring), encoding="utf-8")
    paths["presentation"].write_text(json.dumps(inputs.presentation), encoding="utf-8")
    paths["complex"] = work / "resolution.json"
    return {k: str(v) for k, v in paths.items()}


def _call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_instance(cli, inputs, files: dict) -> dict:
    """One resolve + verify; returns timings and the gate's problems."""
    w = inputs.workload
    clock = time.perf_counter
    sample: dict = {"problems": []}
    try:
        t0 = clock()
        rc_r, out_r = _call(cli, [
            "resolve", "--ring", files["ring"],
            "--presentation", files["presentation"],
            "--length", str(w.length), "--degree-bound", str(w.resolve_bound),
            "--format", "json",
        ])
        t1 = clock()
        resolved = json.loads(out_r) if rc_r == 0 else None
        if resolved is not None:
            with open(files["complex"], "w", encoding="utf-8") as fh:
                json.dump(resolved["complex"], fh)
            t2 = clock()
            rc_v, out_v = _call(cli, [
                "verify", "--ring", files["ring"], "--complex", files["complex"],
                "--degree-bound", str(w.verify_bound), "--format", "json",
            ])
            t3 = clock()
            sample.update(resolve_s=t1 - t0, verify_s=t3 - t2, pipeline_s=t3 - t0)
        sample["problems"] += resolve_problems(
            rc_r, resolved, len(w.variables), inputs.ci_degrees, w.length
        )
        if resolved is not None:
            sample["problems"] += verify_problems(rc_v, json.loads(out_v) if out_v else None)
    except Exception:  # an instance that raises is a failed instance
        traceback.print_exc(file=sys.stderr)
        sample["problems"].append("exception: " + traceback.format_exc(limit=1).strip())
    return sample


def environment(lib, args, inputs) -> dict:
    import numpy

    w = inputs.workload
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": lib.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "koszul_lift_threads": "unset",
        "ring": inputs.ring,
        "presentation": inputs.presentation,
        "length": w.length,
        "resolve_bound": w.resolve_bound,
        "verify_bound": w.verify_bound,
        "calibration": w.calibration,
        "cal_ref_s": CAL_REF_S,
    }


def timed_instance(cli, inputs, files: dict) -> dict:
    """``run_instance`` between two calibrations, whose mean it keeps."""
    kind = inputs.workload.calibration
    before = calibrate(kind)
    sample = run_instance(cli, inputs, files)
    sample["calibration_s"] = (before + calibrate(kind)) / 2
    return sample


def setup_sample(setup_s: float) -> dict:
    """This process's set-up time and a calibration taken right after it.
    Set-up (imports and input generation) is the same kind of work in every
    workload, so it is always calibrated with the mixed kind."""
    calibrate("mixed")  # the first call pays numpy's and Fraction's own warm-up
    return {"setup_s": setup_s, "calibration_s": calibrate("mixed")}


def probe_setup(args) -> dict:
    """``setup_sample`` of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "koszul_lift" / "__init__.py").is_file():
        print(f"error: no koszul_lift sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("KOSZUL_LIFT_THREADS", None)
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("koszul_lift")
    cli = importlib.import_module("koszul_lift.cli")
    w = WORKLOADS[args.workload]
    inputs = generate(w, args.seed)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        files = write_inputs(inputs, Path(work))
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps(setup_sample(setup_s)))
            return 0
        setups = [setup_sample(setup_s)]

        samples = []
        traced: dict = {}
        tracer = Tracer()
        loop_start = time.perf_counter()
        rounds, elapsed = 0, 0.0
        while not rounds or elapsed * (rounds + 1) / rounds <= args.seconds:
            samples.append({**timed_instance(cli, inputs, files), "traced": False})
            if args.trace:
                tracer.instance = len(samples)
                tracer.install(lib)
                try:
                    sample = run_instance(cli, inputs, files)
                finally:
                    tracer.uninstall()
                samples.append({**sample, "traced": True})
                traced[tracer.instance] = sample.get("pipeline_s")
            rounds += 1
            elapsed = time.perf_counter() - loop_start

    failed = sum(1 for s in samples if s["problems"])
    plain = [s for s in samples if not s["traced"] and "pipeline_s" in s]
    metrics: dict = {}
    raw: dict = {}
    if not failed:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {
            m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
        }
        if args.trace:
            values = layer_metrics(tracer, traced, [s["pipeline_s"] for s in plain], units)
        else:
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
            values = {}
            for key, group in (("pipeline_s", plain), ("resolve_s", plain),
                               ("verify_s", plain), ("setup_s", setups)):
                values[key] = median(at_reference_speed(s[key], s["calibration_s"]) for s in group)
                raw[key] = median(s[key] for s in group)
            raw["host_factor"] = median(s["calibration_s"] for s in plain) / CAL_REF_S
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    env = environment(lib, args, inputs)
    record = {"env": env, "samples": samples, "metrics": metrics, "raw": raw}
    if not args.trace:
        record["setups"] = setups
    if args.trace:
        record["spans"] = [s.to_json() for s in tracer.spans]
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record), encoding="utf-8")

    print(f"env {json.dumps(env)}")
    print(
        f"{w.name} seed {args.seed}: {len(samples)} instances "
        f"({len(plain)} untraced), {failed} failed, failed_frac "
        f"{failed / len(samples)}; record in {out_path.relative_to(ROOT)}"
    )
    for s in samples:
        for problem in s["problems"]:
            print(f"  FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if raw:
        print("  raw wall medians, host factor: " + json.dumps(raw))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
