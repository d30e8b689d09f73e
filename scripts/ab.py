#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a base revision against this checkout.

Run from anywhere; the B side is the checkout this script lives in:

    python3 scripts/ab.py --base REV --workload W --pairs N [--seconds S] [--seed K]

``REV`` is exported with ``git archive`` into a temporary directory outside
the checkout.  Each side runs its own ``gsebench/run.py --trace 0``; pair i
gives both runs the seed K + i, and the side that runs first alternates from
pair to pair, so that a drift in machine speed does not favour either side.
The script prints one Markdown row per end-to-end metric of ``BENCHMARK.json``:
the median and [q1, q3] of each side, the change of the medians in % and the
pairs the checkout won.  It exits 1 if any run reports ``failed`` > 0.  It
calls the benchmark only as a program and imports nothing from it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = ("| workload (pairs) | metric | base median [q1, q3] | change median [q1, q3] "
          "| change | wins |\n|---|---|---|---|---|---|")


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; returns its last-line JSON result."""
    argv = [sys.executable, "gsebench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab: {' '.join(argv[1:])} in {tree} exited with {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def summarize(workload: str, metrics: list, base: list, change: list) -> list:
    """Table rows for the paired runs; ``metrics`` are BENCHMARK.json end-to-end entries.

    ``base`` and ``change`` hold one ``{name: value}`` dict per pair, in pair
    order.  A pair is a win when the change is better in the metric's
    direction.  ``setup_s`` is shown in ms.  Metrics missing from a run are
    skipped.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b[name], c[name]) for b, c in zip(base, change) if name in b and name in c]
        if not pairs:
            continue
        scale, label = (1e3, f"`{name}` ms") if name == "setup_s" else (1.0, f"`{name}`")
        cells = []
        for side in zip(*pairs):
            vals = [scale * v for v in side]
            q1, med, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                           if len(vals) > 1 else (vals[0],) * 3)
            cells.append((med, f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]"))
        pct = 100.0 * (cells[1][0] - cells[0][0]) / cells[0][0] if cells[0][0] else 0.0
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        rows.append(f"| {workload} ({len(pairs)}) | {label} | {cells[0][1]} | {cells[1][1]} "
                    f"| {pct:+.1f} % | {wins}/{len(pairs)} |")
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the A side")
    p.add_argument("--workload", required=True, choices=("stream-50ms", "offline-1s", "sweep"))
    p.add_argument("--pairs", type=int, required=True, help="number of run pairs")
    p.add_argument("--seconds", type=float, default=30.0, help="measured phase per run")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    tmp = Path(tempfile.mkdtemp(prefix="gse-ab-"))
    try:
        export(args.base, tmp)
        sides = {"base": tmp, "change": ROOT}
        results = {"base": [], "change": []}
        failed = 0
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                res = run_once(sides[side], args.workload, args.seed + i, args.seconds)
                failed += res["failed"] > 0
                results[side].append({k: m["value"] for k, m in res["metrics"].items()})
                print(f"pair {i + 1}/{args.pairs} {side}: failed {res['failed']}/"
                      f"{res['attempted']}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(HEADER)
    print("\n".join(summarize(args.workload, metrics, results["base"], results["change"])))
    if failed:
        print(f"ab: {failed} run(s) reported failed > 0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
