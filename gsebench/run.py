"""gse benchmark: one workload, untraced for end-to-end metrics or traced for per-layer ones.

Run from the root of a checkout:

    python3 gsebench/run.py --workload stream-50ms --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the platform, every metric with its unit, and notes.  The benchmark
builds nothing: it imports ``gse`` from ``src/`` of the checkout and exits
with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream-50ms", "offline-1s", "sweep")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 40  # set-up takes about 10 ms, so its median needs many samples


class MissingProgram(Exception):
    pass


def bootstrap(processes: int) -> int:
    """Fix the BLAS thread count, then import gse from this checkout's src/.

    processes x BLAS threads stays within the CPU count.  The thread count must
    be in the environment before numpy is first imported.  Returns the count.
    """
    threads = max(1, (os.cpu_count() or 1) // processes)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "gse" / "__init__.py").is_file():
        raise MissingProgram(f"no gse package under {src}")
    sys.path.insert(0, str(src))
    import gse

    if Path(gse.__file__).resolve().parent != (src / "gse").resolve():
        raise MissingProgram(f"imported gse from {gse.__file__}, not from {src}")
    return threads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="seed of the synthetic inputs")
    p.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run for per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    processes = (os.cpu_count() or 1) if args.workload == "sweep" else 1
    try:
        blas_threads = bootstrap(processes)
    except MissingProgram as exc:
        print(f"gsebench: {exc}", file=sys.stderr)
        return 2

    import gse
    import platform_info
    import recipe
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".gsebench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        score_path, den_path = recipe.write_checkpoints(workdir, gse.SdeParams())
        setup_times = []

        def set_up():
            for _ in range(SETUP_REPEATS // 2):
                setup, elapsed = recipe.set_up(score_path, den_path, workload_cls.hybrid_everywhere)
                setup_times.append(elapsed)
            return setup

        # half the set-ups before the measured phase and half after, so that
        # their median does not hang on one moment's machine load
        setup = set_up()
        workload = workload_cls(setup, workdir, args.seed)
        run = workloads.Run()
        if args.trace:
            res = workloads.traced(workload, run, args.seconds)
            metrics, notes = workloads.per_layer(res, setup, run)
            notes.append("exact counts of one traced round: "
                         + json.dumps(res.counts[0], sort_keys=True))
        else:
            wall, audio = workloads.timed(workload, run, args.seconds)
            set_up()
            workload.checks(run)
            metrics, notes = workloads.end_to_end(
                run, statistics.median(setup_times), wall, audio)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    platform = platform_info.record(ROOT, blas_threads, processes)
    print("platform: " + json.dumps(platform, sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  failed_share = {share:.6g} share ({run.failed} failed of {run.attempted} attempted)")
    for note in notes:
        print(f"  note: {note}")
    for problem in run.failures[:20]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
