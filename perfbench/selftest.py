"""Self-test of the benchmark: a very short run of every workload.

    python3 perfbench/selftest.py

Prints every metric of every workload, and checks that tracing restores
the library's bindings, that each workload prints every metric named in
``BENCHMARK.json`` with its unit (timings with their sample count), that no row
fails on this code, that the traced self times account for the traced pass
wall time, and that the benchmark refuses to run without the sources.
Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(msg: str) -> None:
    raise SystemExit(f"selftest: FAIL: {msg}")


def check_bindings() -> None:
    sys.path.insert(0, str(run.SRC))
    import hcppnet.cli  # noqa: F401  (loads every module the tracer patches)
    import hcppnet.interference
    import hcppnet.point_process

    before = tracing.snapshot()
    original = hcppnet.point_process.sample_hcpp
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        with tracing.Tracer() as tracer:
            if hcppnet.interference.sample_hcpp is original:
                fail("tracing did not wrap the interference module's binding of sample_hcpp")
            call = run.run_call(("interference", "--mc", "--reps", "3"), 1, Path(tmp))
    if call.error is not None:
        fail(f"traced call failed: {call.error}")
    seen = {tracer.names[s[0]] for s in tracer.spans}
    for name in ("cli.main", "interference.mc_interference", "point_process.matern2_thin", "channel.sample_shadowing"):
        if name not in seen:
            fail(f"no span recorded for {name}")
    if tracing.snapshot() != before:
        fail("tracing left a library binding changed")
    if hcppnet.interference.sample_hcpp is not original:
        fail("interference.sample_hcpp not restored")
    print("selftest: tracing wraps and restores every binding")


def run_workload(workload: str, trace: int) -> None:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace={trace}: metrics {sorted(got.items())} != {sorted(expected.items())}")
    for name, unit in expected.items():
        if not any(line.startswith(f"metric {name} = ") and f" {unit}" in line for line in lines):
            fail(f"{workload} trace={trace}: report line for {name} [{unit}] missing")
    for name in expected if not trace else ():
        if not any(line.startswith(f"timing {name}: median ") and ", n=" in line for line in lines):
            fail(f"{workload}: no median and sample count printed for {name}")
    if result["failed"] or not result["correct"] or f"metric error_rate = 0 fraction" not in out.stdout:
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} rows failed: {out.stderr[-2000:]}")
    if trace and not 0.0 <= result["metrics"]["trace.unaccounted_s"]["value"] < 0.05:
        fail(f"{workload}: self times leave {result['metrics']['trace.unaccounted_s']['value']} s unaccounted")
    for line in lines:
        if line.startswith(("metric ", "timing ")):
            print(f"  {workload}: {line}")
    print(f"selftest: {workload} trace={trace}: {len(got)} metrics, {result['attempted']} rows, 0 failed")


def check_refuses_without_sources() -> None:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, str(bare / run.HERE.name / "run.py"), "--workload", "itf_point", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if out.returncode == 0 or '"metrics"' in out.stdout:
        fail("benchmark ran without the library sources")
    print("selftest: refuses to run without the library sources")


def main() -> None:
    check_bindings()
    check_refuses_without_sources()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            run_workload(workload, trace)
    print("selftest: OK")


if __name__ == "__main__":
    main()
