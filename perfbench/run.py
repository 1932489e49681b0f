"""hcppnet benchmark: three workloads driven through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed sequence of ``hcppnet.cli.main`` calls (a *pass*),
run in this process with one worker.  Outputs go to a temporary directory
under ``.perfbench/`` in the checkout, never to the working directory.

Workloads (why each exists):

* ``itf_sweep`` -- ``figure 2`` then ``figure 3`` at ``--reps 50``, 72 rows.
  Point-pattern sampling, shadowing/fading draws and the pair sums of the
  Monte Carlo interference estimator dominate; the only workload that runs
  ``mc_interference_ppp``.
* ``itf_point`` -- ``interference --mc --reps 200`` at the default point.
  The same Monte Carlo layers with one scenario per pass, so per-realization
  cost and estimator variance dominate; carries the precision figure.
* ``analytic_sweep`` -- ``figure 6, 7, 8, 9, 10, 11`` at default draws, 419
  rows.  No point pattern is sampled: the interference quadrature, the
  energy quadrature and the vectorised draws dominate.  A change to the
  Monte Carlo sampler should not move it.

A run warms up with one pass at the given seed, then repeats passes until
``--seconds`` is used up.  Timed pass ``k`` runs at seed ``seed`` for
``k == 0`` and at a seed derived from ``(seed, k)`` otherwise, so passes are
independent replicates of the estimators.  Every row of every pass is
checked; a row fails if its call raises or exits non-zero, if a number in it
is not finite, if its analytic column differs from ``reference.json`` by
more than a relative 1e-8, if (figures 6-7) the Jensen bound in the analytic
column falls below ``mc_mean - 5 * mc_std_error``, or if pass 0 does not
reproduce the warm-up's output bytes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time and traced passes (see ``tracing.py``) for the
other half, and reports per-layer metrics per traced pass.  The last line
of standard output is the JSON result; a run record with the environment,
and in traced runs the spans, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

ITF_SWEEP_REPS = 50
ITF_POINT_REPS = 200
SETUP_SAMPLES = 3
JENSEN_K = 5.0
ANALYTIC_RTOL = 1e-8
TARGET_RSE = 0.01

WORKLOADS = {
    "itf_sweep": (
        ("figure", "2", "--reps", str(ITF_SWEEP_REPS)),
        ("figure", "3", "--reps", str(ITF_SWEEP_REPS)),
    ),
    "itf_point": (("interference", "--mc", "--reps", str(ITF_POINT_REPS)),),
    "analytic_sweep": tuple(("figure", str(f)) for f in (6, 7, 8, 9, 10, 11)),
}

IMPORT_MODULES = (
    "hcppnet",
    "hcppnet.errors",
    "hcppnet.channel",
    "hcppnet.point_process",
    "hcppnet.interference",
    "hcppnet.zf_capacity",
    "hcppnet.energy",
    "hcppnet.config",
    "hcppnet.figures",
    "hcppnet.cli",
    "scipy.stats",
)

# per traced pass: (metric, unit, span or counter name, kind of figure)
LAYER_METRICS = (
    ("point_process.sample_hcpp.s", "s", "point_process.sample_hcpp", "total"),
    ("point_process.sample_ppp.s", "s", "point_process.sample_ppp", "total"),
    ("point_process.matern2_thin.s", "s", "point_process.matern2_thin", "total"),
    ("point_process.matern2_thin.points", "count", "point_process.matern2_thin.points", "count"),
    ("point_process.second_moment.s", "s", "point_process.second_moment", "total"),
    ("point_process.second_moment.calls", "count", "point_process.second_moment", "calls"),
    ("channel.sample_shadowing.s", "s", "channel.sample_shadowing", "total"),
    ("channel.sample_shadowing.draws", "count", "channel.sample_shadowing.draws", "count"),
    ("channel.sample_fading_power.s", "s", "channel.sample_fading_power", "total"),
    ("channel.sample_fading_power.draws", "count", "channel.sample_fading_power.draws", "count"),
    ("interference.mc_interference.self_s", "s", "interference.mc_interference", "self"),
    ("interference.mc_interference.realizations", "count", "interference.mc_interference.realizations", "count"),
    ("interference.mc_interference_ppp.self_s", "s", "interference.mc_interference_ppp", "self"),
    ("interference.avg_interference_hcpp.self_s", "s", "interference.avg_interference_hcpp", "self"),
    ("interference.avg_interference_hcpp.calls", "count", "interference.avg_interference_hcpp", "calls"),
    ("energy.energy_efficiency_quad.self_s", "s", "energy.energy_efficiency_quad", "self"),
    ("energy.energy_efficiency_mc.self_s", "s", "energy.energy_efficiency_mc", "self"),
    ("energy.energy_efficiency_mc.draws", "count", "energy.energy_efficiency_mc.draws", "count"),
    ("zf_capacity.spectral_efficiency_mc.s", "s", "zf_capacity.spectral_efficiency_mc", "total"),
    ("zf_capacity.spectral_efficiency_mc.draws", "count", "zf_capacity.spectral_efficiency_mc.draws", "count"),
    ("figures.run_figure.self_s", "s", "figures.run_figure", "self"),
    ("figures.write_csv.s", "s", "figures.write_csv", "total"),
    ("figures.rows", "count", "figures.rows", "count"),
    ("config.config_from_dict.s", "s", "config.config_from_dict", "total"),
    ("cli.main.self_s", "s", "cli.main", "self"),
)


@dataclass
class Row:
    series: str
    sweep_value: float
    analytic: float
    mc_mean: float
    mc_std_error: float
    replications: int
    units: str
    line: str


@dataclass
class Call:
    label: str
    wall: float
    rows: list[Row] = field(default_factory=list)
    meta: bytes = b""
    error: str | None = None


@dataclass
class Pass:
    seed: int
    calls: list[Call]

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)

    @property
    def rows(self) -> list[Row]:
        return [r for c in self.calls for r in c.rows]


def pass_seed(seed: int, k: int) -> int:
    if k == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _label(argv: tuple[str, ...]) -> str:
    return f"figure{argv[1]}" if argv[0] == "figure" else argv[0]


def run_call(argv: tuple[str, ...], seed: int, outdir: Path) -> Call:
    """Run one CLI call in-process; only the call itself is timed."""
    import hcppnet.cli as cli

    label = _label(argv)
    full = list(argv) + ["--seed", str(seed)]
    csv_path = outdir / f"{label}.csv"
    if argv[0] == "figure":
        full += ["--workers", "1", "--out", str(csv_path)]
        csv_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(full)
    except Exception as exc:  # a raising call fails its rows; the run goes on
        code, error = None, f"raised {exc!r}"
    wall = time.perf_counter() - start
    call = Call(label, wall)
    if error is None and code != 0:
        error = f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
    if error is not None:
        call.error = error
        return call
    try:
        if argv[0] == "figure":
            text = csv_path.read_text(encoding="utf-8")
            call.meta = csv_path.with_suffix(".meta.json").read_bytes()
            lines = text.splitlines()
            for line, rec in zip(lines[1:], csv.reader(lines[1:])):
                call.rows.append(
                    Row(rec[0], float(rec[1]), float(rec[2]), float(rec[3]), float(rec[4]), int(rec[5]), rec[6], line)
                )
        else:
            out = stdout.getvalue()
            p = json.loads(out)
            call.rows.append(
                Row(p["model"], float(p["x_off_m"]), float(p["analytic_w"]), float(p["mc_mean_w"]),
                    float(p["mc_std_error_w"]), int(p["replications"]), "W", out)
            )
    except (OSError, ValueError, KeyError, IndexError) as exc:
        call.error = f"unreadable output: {exc!r}"
    return call


def run_pass(workload: str, seed: int, outdir: Path) -> Pass:
    return Pass(seed, [run_call(argv, seed, outdir) for argv in WORKLOADS[workload]])


def check_pass(p: Pass, reference: dict, warmup: Pass | None) -> tuple[int, list[str]]:
    """Rows attempted in a pass and one message per failed row."""
    attempted = 0
    failures: list[str] = []
    for i, call in enumerate(p.calls):
        expected = reference[call.label]
        attempted += max(len(expected), len(call.rows))
        if call.error is not None:
            failures += [f"{call.label}: {call.error}"] * len(expected)
            continue
        base = warmup.calls[i] if warmup is not None else None
        if base is not None and base.meta != call.meta:
            failures += [f"{call.label}: metadata bytes differ from the warm-up"] * len(expected)
            continue
        for j in range(max(len(expected), len(call.rows))):
            where = f"{call.label} row {j + 1}"
            if j >= len(call.rows) or j >= len(expected):
                failures.append(f"{where}: row count {len(call.rows)} != reference {len(expected)}")
                continue
            row = call.rows[j]
            series, sweep_value, analytic = expected[j]
            numbers = (row.analytic, row.mc_mean, row.mc_std_error)
            if (row.series, row.sweep_value) != (series, sweep_value):
                failures.append(f"{where}: is {row.series}@{row.sweep_value}, expected {series}@{sweep_value}")
            elif not all(math.isfinite(x) for x in numbers):
                failures.append(f"{where}: non-finite value in {numbers}")
            elif abs(row.analytic - analytic) > ANALYTIC_RTOL * abs(analytic):
                failures.append(f"{where}: analytic {row.analytic!r} != reference {analytic!r}")
            elif call.label in ("figure6", "figure7") and row.analytic < row.mc_mean - JENSEN_K * row.mc_std_error:
                failures.append(f"{where}: Jensen bound {row.analytic!r} below mc {row.mc_mean!r}")
            elif base is not None and (j >= len(base.rows) or base.rows[j].line != row.line):
                failures.append(f"{where}: output bytes differ from the warm-up at the same seed")
    return attempted, failures


def measure(workload: str, seed: int, budget: float, outdir: Path) -> list[Pass]:
    """Timed passes until the next one would overrun ``budget`` seconds (at least one)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, pass_seed(seed, len(passes)), outdir))
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + typical > budget:
            return passes


def max_abs_z(p: Pass, units: str) -> float:
    z = [
        abs(r.analytic - r.mc_mean) / r.mc_std_error
        for r in p.rows
        if r.units == units and r.mc_std_error > 0 and math.isfinite(r.mc_std_error)
    ]
    return max(z, default=0.0)


def rse_cost(p: Pass) -> list[float]:
    """Per row: pass wall time times (RSE / 1%)^2, the projected seconds to a 1% RSE.

    Rows without a positive mean and a finite positive standard error carry
    no relative error and are skipped.
    """
    return [
        p.wall * (r.mc_std_error / r.mc_mean / TARGET_RSE) ** 2
        for r in p.rows
        if r.mc_mean > 0 and 0 < r.mc_std_error < math.inf
    ]


def trimmed_geomean(values: list[float]) -> float:
    """Geometric mean of the values left after dropping the lowest and highest tenth.

    The standard errors behind ``s_to_1pct_rse`` are heavy-tailed: at the
    default point one realization in 16,000 can carry half the sample
    variance, so a pass that draws one reports an SE several times the
    typical one.  A mean or a pooled SE follows those rare passes; this
    statistic follows the typical pass and still moves when every pass's
    variance changes.
    """
    logs = sorted(math.log(v) for v in values)
    cut = len(logs) // 10
    return math.exp(statistics.fmean(logs[cut:len(logs) - cut]))


def summary(values: list[float], worse: str) -> dict:
    """Median, the most extreme percentile on the worse side with >= 10 samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            rank = max(1, math.ceil(q / 100.0 * n))
            out["tail_pct"] = q
            out["tail"] = ordered[rank - 1] if worse == "high" else ordered[n - rank]
            break
    return out


def python_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HCPPNET_WORKERS")}
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_interpreter(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=ROOT, env=python_env(), capture_output=True, text=True, timeout=120, check=True,
    )


def setup_seconds() -> list[float]:
    """Fresh interpreter start to the end of ``import hcppnet`` plus ``load_config(None)``."""
    code = "import time, hcppnet; hcppnet.load_config(None); print(repr(time.time()), hcppnet.__file__)"
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.time()
        done, origin = fresh_interpreter(code).stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported hcppnet from {origin}, not {SRC}")
        samples.append(float(done) - started)
    return samples


def import_seconds() -> dict[str, float]:
    """Cumulative import time per module from ``-X importtime``; 0 for modules not imported.

    A module the log does not name itself (scipy loads ``scipy.stats``
    lazily) is charged the outermost entries of its submodules.
    """
    err = fresh_interpreter("import hcppnet.cli", "-X", "importtime").stderr
    entries = []  # (depth, name, seconds); the log lists children before their parent
    for line in err.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                entries.append((len(name) - len(name.lstrip()), name.strip(), int(cum) * 1e-6))
    exact = {name: sec for _, name, sec in entries}
    out = {}
    for module in IMPORT_MODULES:
        if module in exact:
            out[f"import.{module}_s"] = exact[module]
            continue
        total, ancestors = 0.0, []
        for depth, name, sec in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = name.startswith(module + ".")
            if inside and not any(a.startswith(module + ".") for _, a in ancestors):
                total += sec
            ancestors.append((depth, name))
        out[f"import.{module}_s"] = total
    return out


def git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(workload: str, seed: int, seconds: float, trace: int, reference: dict) -> dict:
    import numpy
    import scipy

    import hcppnet

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if head else None
    cfg = hcppnet.load_config(None)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_head": head,
        "git_dirty": None if status is None else bool(status),
        "lengths": {
            name: {"pass": [" ".join(argv) for argv in calls], "rows": sum(len(reference[_label(a)]) for a in calls)}
            for name, calls in WORKLOADS.items()
        },
        "default_draws": {"se_draws": cfg.se_draws, "ee_draws": cfg.ee_draws},
    }


def end_to_end(timed: list[Pass]) -> tuple[dict, dict]:
    """End-to-end metrics and, per metric, the samples behind it with their summary."""
    costs = [c for p in timed for c in rse_cost(p)]
    if not costs:
        raise SystemExit("no row produced a usable standard error; see the failures above")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table = {  # name: (unit, worse side, samples, reported value or None for the median)
        "setup_s": ("s", "high", setup_seconds(), None),
        "rows_per_s": ("rows/s", "low", [len(p.rows) / p.wall for p in timed], None),
        "realizations_per_s": ("1/s", "low", [sum(r.replications for r in p.rows) / p.wall for p in timed], None),
        "s_to_1pct_rse": ("s", "high", costs, trimmed_geomean(costs)),
        "peak_rss_mb": ("MB", "high", [rss_mb], None),
        "pass_wall_s": ("s", "high", [p.wall for p in timed], None),
    }
    stats = {}
    for name, (unit, worse, samples, value) in table.items():
        stats[name] = dict(summary(samples, worse), unit=unit, samples=samples)
        stats[name]["value"] = stats[name]["median"] if value is None else value
    metrics = {name: {"value": stats[name]["value"], "unit": stats[name]["unit"]}
               for name in table if name != "pass_wall_s"}
    return metrics, stats


def per_layer(tracer, traced: list[Pass], untraced: list[Pass]) -> tuple[dict, dict]:
    n = len(traced)
    total, self_time, calls_by_name = tracer.layer_totals()
    counters = tracer.counters
    metrics = {}
    for name, unit, key, kind in LAYER_METRICS:
        source = {"total": total, "self": self_time, "calls": calls_by_name, "count": counters}[kind]
        metrics[name] = {"value": source.get(key, 0) / n, "unit": unit}
    points = counters.get("point_process.matern2_thin.points", 0)
    calls = calls_by_name.get("interference.avg_interference_hcpp", 0)
    metrics["point_process.matern2_thin.kept_ratio"] = {
        "value": counters.get("point_process.matern2_thin.kept", 0) / points if points else 0.0,
        "unit": "ratio",
    }
    # every pass of a workload evaluates the same scenarios, whatever its seed
    metrics["interference.avg_interference_hcpp.distinct_ratio"] = {
        "value": len(counters.distinct) * n / calls if calls else 0.0, "unit": "ratio"
    }
    for name, value in import_seconds().items():
        metrics[name] = {"value": value, "unit": "s"}
    # pass 0 runs at the given seed, so the diagnostics depend on it alone
    metrics["interference.max_abs_z"] = {"value": max_abs_z(untraced[0], "W"), "unit": "z"}
    metrics["energy.max_abs_z"] = {"value": max_abs_z(untraced[0], "bit/Hz/J"), "unit": "z"}
    # traced pass k and untraced pass k run at the same seed, so pair them
    paired = [t.wall - u.wall for t, u in zip(traced, untraced)]
    metrics["trace.overhead_s"] = {"value": statistics.median(paired), "unit": "s"}
    mean_wall = statistics.fmean(p.wall for p in traced)
    metrics["trace.unaccounted_s"] = {"value": mean_wall - sum(self_time.values()) / n, "unit": "s"}
    layers = {
        name: {"calls": calls_by_name[name] / n, "total_s": total.get(name, 0.0) / n,
               "self_s": self_time.get(name, 0.0) / n}
        for name in tracer.names
    }
    return metrics, layers


def print_report(env: dict, metrics: dict, stats: dict | None, layers: dict | None) -> None:
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, s in (stats or {}).items():
        tail = "no tail (fewer than 20 samples)" if s["tail_pct"] is None else f"worst-side p{s['tail_pct']:g} {s['tail']:.6g}"
        print(f"timing {name}: median {s['median']:.6g} {s['unit']}, {tail}, n={s['n']}")
    for name, v in (layers or {}).items():
        print(f"layer {name}: {v['calls']:g} calls, total {v['total_s']:.6f} s, self {v['self_s']:.6f} s per traced pass")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    sys.path.insert(0, str(SRC))
    import hcppnet.cli  # noqa: F401  (fails here, before any result, without the sources)

    if not Path(hcppnet.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hcppnet imported from {hcppnet.cli.__file__}, not {SRC}")
    os.environ.pop("HCPPNET_WORKERS", None)
    reference = json.loads((HERE / "reference.json").read_text())
    env = environment(args.workload, args.seed, args.seconds, args.trace, reference)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        warmup = run_pass(args.workload, args.seed, tmp)
        attempted, failures = check_pass(warmup, reference, None)
        budget = args.seconds if args.trace == 0 else args.seconds / 2.0
        untraced = measure(args.workload, args.seed, budget, tmp)
        traced: list[Pass] = []
        if args.trace:
            from tracing import Tracer

            with Tracer() as tracer:
                traced = measure(args.workload, args.seed, budget, tmp)
            for missing in tracer.missing:
                print(f"warning: traced function {missing} not found", file=sys.stderr)
        for p in untraced + traced:
            a, f = check_pass(p, reference, warmup if p.seed == args.seed else None)
            attempted += a
            failures += f
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for msg in failures[:20]:
        print(f"failed: {msg}", file=sys.stderr)
    if args.trace:
        metrics, layers = per_layer(tracer, traced, untraced)
        stats = None
    else:
        metrics, stats = end_to_end(untraced)
        layers = None
    print_report(env, metrics, stats, layers)
    error_rate = len(failures) / attempted
    print(f"metric error_rate = {error_rate:.6g} fraction ({len(failures)} of {attempted} rows failed)")

    record = {"environment": env, "metrics": metrics, "stats": stats, "layers": layers,
              "attempted": attempted, "failed": len(failures), "failures": failures[:200],
              "passes": {"untraced": len(untraced), "traced": len(traced)}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        spans = {"names": tracer.names, "spans": tracer.spans}
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans, separators=(",", ":")))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
