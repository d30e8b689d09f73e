#!/usr/bin/env python3
"""Run the benchmark on every workload and write BENCH_<label>.json.

Run from anywhere; it works on the checkout it lives in:

    python3 scripts/bench.py --label pr6 [--seconds 30] [--seed 1]

Each workload of ``gsebench/run.py`` runs twice, one after the other: with
``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for the
per-layer ones.  The file records each run's metrics, its failed/attempted
counts, the exact per-round counts of the traced run, the platform the
benchmark printed and the line count of ``src/gse``.  The script only calls
``gsebench/run.py`` as a program; it imports nothing from it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream-50ms", "offline-1s", "sweep")
PLATFORM_PREFIX = "platform: "
COUNTS_PREFIX = "note: exact counts of one traced round: "


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``gsebench/run.py`` run; returns its parsed result."""
    argv = [sys.executable, str(ROOT / "gsebench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {' '.join(argv[1:])} exited with {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    out = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    for line in lines[:-1]:
        line = line.strip()
        if line.startswith(PLATFORM_PREFIX):
            out["platform"] = json.loads(line[len(PLATFORM_PREFIX):])
        elif line.startswith(COUNTS_PREFIX):
            out["counts"] = json.loads(line[len(COUNTS_PREFIX):])
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "gse").glob("*.py")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--seconds", type=float, default=30.0, help="measured phase per run")
    p.add_argument("--seed", type=int, default=1, help="seed of the synthetic inputs")
    args = p.parse_args(argv)

    doc = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
           "src_gse_lines": src_lines(), "workloads": {}}
    for workload in WORKLOADS:
        end_to_end = run_once(workload, args.seed, args.seconds, trace=0)
        per_layer = run_once(workload, args.seed, args.seconds, trace=1)
        doc.setdefault("platform", end_to_end.pop("platform", None))
        per_layer.pop("platform", None)
        doc["workloads"][workload] = {"end_to_end": end_to_end, "per_layer": per_layer}
        print(f"{workload}: failed {end_to_end['failed']}/{end_to_end['attempted']} untraced, "
              f"{per_layer['failed']}/{per_layer['attempted']} traced", flush=True)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
