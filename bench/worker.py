"""One workload in one fresh interpreter; prints a JSON summary on stdout.

    python3 bench/worker.py --workload grow --seed 1 --mode setup
    python3 bench/worker.py --workload grow --seed 1 --mode measure --seconds 25
    python3 bench/worker.py --workload grow --seed 1 --mode trace --passes 4

`setup` only imports the library and builds the first pass's inputs.
`measure` runs whole passes until at least --seconds of operation time and
MIN_OPS operations are done, or exactly --passes passes when given.
`trace` runs --passes passes with spans around the library's functions.
The caller sets PYTHONPATH to the library's sources.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import remychain  # noqa: E402
import remychain.cli  # noqa: E402

T_IMPORT = time.perf_counter()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# p90 needs at least ten operations beyond it.
MIN_OPS = 100


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install(remychain)
    os.makedirs(args.workdir, exist_ok=True)
    ctx = workloads.Context(remychain, args.workdir)
    try:
        ops = workloads.build_pass(args.workload, args.seed, 0, ctx)
        result = {"import_s": T_IMPORT - T0, "setup_s": time.perf_counter() - T0}
        if args.mode != "setup":
            result.update(run(args, ctx, ops, tracer))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


def run(args, ctx, ops, tracer) -> dict:
    """Closed loop over whole passes: time each operation, then check it."""
    timings: list[list] = []  # [class, size, seconds, failure class or None, pass]
    wrong: list[str] = []
    timed = 0.0
    passes = 0
    while True:
        for op in ops:
            if tracer:
                tracer.begin()
            start = time.perf_counter()
            try:
                out, failure = op.run(), None
            except Exception as e:  # one failed operation; the run goes on
                out, failure = None, type(e).__name__
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end()
            failure = failure or workloads.failed(out)
            timed += elapsed
            timings.append([op.cls, op.size, elapsed, failure, passes])
            if failure is None:
                try:
                    op.check(out)
                except Exception as e:  # a wrong answer, including malformed output
                    kind = "" if isinstance(e, checks.CheckFailure) else type(e).__name__ + ": "
                    wrong.append(f"{op.cls} n{op.size}: {kind}{e}")
        passes += 1
        if args.passes:
            if passes >= args.passes:
                break
        elif timed >= args.seconds and len(timings) >= MIN_OPS:
            break
        ops = workloads.build_pass(args.workload, args.seed, passes, ctx)
    return {
        "ops": timings,
        "timed_s": timed,
        "passes": passes,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main())
