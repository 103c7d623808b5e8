#!/usr/bin/env python3
"""Benchmark of the remychain library and CLI, run from the repository root.

    python3 bench/run.py --workload grow --seed 1 --seconds 25 --trace 0

Workloads are `grow`, `exact` and `boundary` (see bench/workloads.py).  Each
runs in fresh interpreters started from here, with the BLAS and OpenMP
pools pinned to one thread:

- `--trace 0`: SETUP_PROBES interpreters that only import the library and
  build the inputs, then one that also runs the closed loop for at least
  --seconds.  Prints the end-to-end metrics.
- `--trace 1`: an untraced and a traced interpreter run the same fixed
  number of passes.  Prints the per-layer metrics, the size sweep and the
  tracing overhead.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the metric names and units are those listed in
BENCHMARK.json.  A full report (per-class failures, the environment, and in
traced runs the span file) goes to .bench_out/.  Exits nonzero, printing
no result, when the library sources are missing or the checker self-test
misses a corrupted output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # set and dict orders of strings repeat between runs
    return env


class Launcher:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.env = worker_env()
        self.count = 0

    def worker(self, mode: str, **extra) -> dict:
        self.count += 1
        tag = f"{self.args.workload}-{self.args.seed}-{os.getpid()}-{self.count}"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode, "--workdir", str(OUT / f"work-{tag}")]
        for key, val in extra.items():
            cmd += [f"--{key}", str(val)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{mode} worker exceeded the time budget") from e
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_metrics(run: dict) -> dict[str, float]:
    """Throughput is the median over passes, which all run the same mix;
    latency percentiles are taken over every operation of the run."""
    ops = run["ops"]
    lat = sorted(math.inf if fail else t * 1000.0 for _, _, t, fail, _ in ops)
    done = sum(1 for *_, fail, _ in ops if not fail)
    per_pass: dict[int, list[float]] = {}
    for _, _, t, fail, p in ops:
        row = per_pass.setdefault(p, [0, 0.0])
        row[0] += not fail
        row[1] += t
    beyond_p90 = len(lat) - math.ceil(0.9 * len(lat))
    if beyond_p90 < 10:
        raise BenchError(f"only {len(lat)} operations; p90 needs ten beyond it")
    p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
    if math.isinf(p90):
        raise BenchError("more than a tenth of the operations failed; p90 is unbounded")
    return {
        "ops_per_s": statistics.median(n / t for n, t in per_pass.values()),
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "ok_frac": done / len(ops),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def class_summary(run: dict) -> dict[str, dict]:
    """Per class and size: attempts, failures by exception class, p50 of the
    time each attempt took, to its result or to its failure."""
    out: dict[str, dict] = {}
    for cls, size, t, fail, _ in run["ops"]:
        row = out.setdefault(f"{cls}.n{size}", {"attempted": 0, "failed": {}, "ms": []})
        row["attempted"] += 1
        row["ms"].append(t * 1000.0)
        if fail:
            row["failed"][fail] = row["failed"].get(fail, 0) + 1
    for row in out.values():
        row["p50_ms"] = statistics.median(row.pop("ms"))
    return out


def sweep_metrics(summary: dict[str, dict]) -> dict[str, float]:
    m: dict[str, float] = {}
    for mix in workloads.MIXES.values():
        for cls, sizes in mix.items():
            for size in sizes:
                key = f"{cls}.n{size}"
                m[f"sweep.{key}.p50_ms"] = summary[key]["p50_ms"] if key in summary else 0.0
    for exps in workloads.EXPONENTS.values():
        for name, classes in exps.items():
            sizes = sorted(workloads.MIXES_BY_CLASS[classes[0]])
            points = [(size, sum(summary.get(f"{c}.n{size}", {}).get("p50_ms", 0.0) for c in classes))
                      for size in sizes]
            m[f"sweep.{name}.exponent"] = slope(points) if all(v > 0 for _, v in points) else 0.0
    return m


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log time against log size."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(v) for _, v in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def environment() -> dict:
    import importlib.metadata as md

    def version(pkg: str) -> str:
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def declared(mode_key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[mode_key]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "remychain" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    missed = checks.self_test()
    if missed:
        print(f"error: the checker misses corrupted outputs: {missed}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"environment: {json.dumps(env)}", file=sys.stderr)

    launcher = Launcher(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [launcher.worker("setup") for _ in range(SETUP_PROBES)]
        if args.trace == 0:
            main_run = launcher.worker("measure", seconds=args.seconds)
            runs = [main_run]
            values = latency_metrics(main_run)
            values["setup_s"] = statistics.median(r["setup_s"] for r in setups + runs)
            names = declared("end_to_end")
        else:
            passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
            main_run = launcher.worker("measure", passes=passes)
            traced = launcher.worker("trace", passes=passes, spans=OUT / f"{tag}.spans.tsv")
            runs = [main_run, traced]
            values = spans.layer_metrics(traced["trace"])
            values.update(sweep_metrics(class_summary(main_run)))
            values["setup.import_s"] = statistics.median(r["import_s"] for r in setups + runs)
            values["trace.overhead_frac"] = traced["timed_s"] / main_run["timed_s"] - 1.0
            names = declared("per_layer")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    wrong = [w for r in runs for w in r["wrong"]]
    ops = main_run["ops"]
    failed = sum(1 for *_, fail, _ in ops if fail)
    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "passes": main_run["passes"], "fail_frac": failed / len(ops),
        "classes": class_summary(main_run), "wrong": wrong, "values": values,
        "setup_s": [r["setup_s"] for r in setups + runs],
    }
    if args.trace:
        report["trace"] = traced["trace"]
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    failures = {k: row["failed"] for k, row in report["classes"].items() if row["failed"]}
    print(f"fail_frac {report['fail_frac']:.4f}: {json.dumps(failures)}", file=sys.stderr)
    for line in wrong[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
