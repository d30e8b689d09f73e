#!/usr/bin/env python3
"""Run the benchmark on every workload and write BENCH_<label>.json.

Run from anywhere; it works on the checkout it lives in:

    python3 scripts/bench.py --label pr6 [--seconds 30] [--seed 1]

Each workload of ``gsebench/run.py`` runs twice, one after the other, through
``scripts/ab.py``'s ``run_once``: with ``--trace 0`` for the end-to-end
metrics and with ``--trace 1`` for the per-layer ones.  The file records each
run's metrics, its failed/attempted counts, the exact per-round counts of the
traced run, the platform the benchmark printed and the line count of
``src/gse``.  The script only calls
``gsebench/run.py`` as a program; it imports nothing from it.

Host speed.  Before and after each workload the script times a fixed kernel
shaped like the recipe's per-frame recurrent step: 1,200 products
(1, 160) @ (160, 320) on 64-byte-aligned arrays, each with its tanh.  Each
workload records ``host_ms`` {"before", "after"}, the best of five timings in
ms, so that two files written at different times can be compared per unit of
host speed (divide a time by the host time).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import ab  # this script's directory is first on sys.path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream-50ms", "offline-1s", "sweep")
PLATFORM_PREFIX = "platform: "
COUNTS_PREFIX = "note: exact counts of one traced round: "


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``gsebench/run.py`` run of this checkout; its counts, metrics, platform and
    exact traced counts."""
    result, lines = ab.run_once(ROOT, workload, seed, seconds, trace)
    out = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    for line in lines:
        line = line.strip()
        if line.startswith(PLATFORM_PREFIX):
            out["platform"] = json.loads(line[len(PLATFORM_PREFIX):])
        elif line.startswith(COUNTS_PREFIX):
            out["counts"] = json.loads(line[len(COUNTS_PREFIX):])
    return out


def _aligned(shape: tuple) -> np.ndarray:
    """A 64-byte-aligned float64 array; the kernel uses nothing of ``gse``, so that it stays
    the same across revisions."""
    raw = np.empty(int(np.prod(shape)) + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + raw.size - 8].reshape(shape)


def host_ms(products: int = 1200, repeats: int = 5) -> float:
    """Best of ``repeats`` timings, in ms, of ``products`` (1, 160) @ (160, 320) products, each
    with its tanh."""
    s, w, out = _aligned((1, 160)), _aligned((160, 320)), _aligned((1, 320))
    rng = np.random.default_rng(0)
    s[...], w[...] = rng.standard_normal(s.shape), rng.standard_normal(w.shape) / 16
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(products):
            np.matmul(s, w, out=out)
            np.tanh(out, out=out)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


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
    host_ms()  # a process's first timing once read 25 % slow; it is not recorded
    for workload in WORKLOADS:
        before = host_ms()
        end_to_end = run_once(workload, args.seed, args.seconds, trace=0)
        per_layer = run_once(workload, args.seed, args.seconds, trace=1)
        host = {"before": before, "after": host_ms()}
        doc.setdefault("platform", end_to_end.pop("platform", None))
        per_layer.pop("platform", None)
        doc["workloads"][workload] = {"end_to_end": end_to_end, "per_layer": per_layer,
                                      "host_ms": host}
        print(f"{workload}: failed {end_to_end['failed']}/{end_to_end['attempted']} untraced, "
              f"{per_layer['failed']}/{per_layer['attempted']} traced, host "
              f"{host['before']:.2f} -> {host['after']:.2f} ms", flush=True)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
