#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a base revision against this checkout.

Run from anywhere; the B side is the checkout this script lives in:

    python3 scripts/ab.py --base REV --workload W --pairs N [--seconds S] [--seed K]
                          [--claim METRIC]

``REV`` is exported with ``git archive`` and the checkout's files (tracked
and untracked, less what ``.gitignore`` excludes) are copied, into sibling
temporary directories with names of one length, so that both sides run from
a fresh tree at alike paths.  Each side runs its own ``gsebench/run.py
--trace 0``; pair i gives both runs the seed K + i, and the side that runs
first alternates from pair to pair, so that a drift in machine speed does
not favour either side.
The script prints one Markdown row per end-to-end metric of ``BENCHMARK.json``:
the median and [q1, q3] of each side, the change of the medians in % and the
pairs the checkout won.  Below the table it names every metric whose change
median is worse than the base median by more than the metric's bound
(``regressed``).  With ``--claim METRIC`` it also applies the claim rule: the
checkout must win at least nine tenths of the pairs (ties count for neither),
and its median must beat the base median by more than the base's
interquartile range (``claim_met`` or ``claim_not_met``).  The last line is
the verdict: ``regressed``, ``claim_not_met``, ``claim_met`` or ``ok``.  It
exits 1 if any run reports ``failed`` > 0.  It calls the benchmark only as a
program and imports nothing from it.
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


def copy_checkout(dest: Path) -> None:
    """Copy the checkout's working-tree files, as ``git status`` sees them, into ``dest``."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, names.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[dict, list]:
    """One benchmark run in ``tree``; returns its last-line JSON result and the lines
    printed before it."""
    argv = [sys.executable, "gsebench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {tree} exited with {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1]), lines[:-1]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _quartiles(vals: list) -> tuple:
    """(q1, median, q3); one value is its own quartiles."""
    if len(vals) == 1:
        return (vals[0],) * 3
    return tuple(statistics.quantiles(vals, n=4, method="inclusive"))


def _pairs(name: str, base: list, change: list) -> list:
    return [(b[name], c[name]) for b, c in zip(base, change) if name in b and name in c]


def _wins(pairs: list, lower: bool) -> int:
    """Pairs the change won; a tie counts for neither side."""
    return sum((c < b) if lower else (c > b) for b, c in pairs)


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
        pairs = _pairs(name, base, change)
        if not pairs:
            continue
        scale, label = (1e3, f"`{name}` ms") if name == "setup_s" else (1.0, f"`{name}`")
        cells = []
        for side in zip(*pairs):
            q1, med, q3 = _quartiles([scale * v for v in side])
            cells.append((med, f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]"))
        pct = 100.0 * (cells[1][0] - cells[0][0]) / cells[0][0] if cells[0][0] else 0.0
        wins = _wins(pairs, lower)
        rows.append(f"| {workload} ({len(pairs)}) | {label} | {cells[0][1]} | {cells[1][1]} "
                    f"| {pct:+.1f} % | {wins}/{len(pairs)} |")
    return rows


def verdict(metrics: list, base: list, change: list, claim: str | None = None) -> list:
    """Lines that judge the paired runs; the last one is the verdict word.

    A metric other than ``claim`` regresses when its change median is worse
    than its base median by more than its ``bound`` (a fraction of the base
    median).  The claim holds when the checkout won at least nine tenths of
    the pairs, ties counting for neither, and its median beats the base
    median by more than the base's q3 - q1.
    """
    lines, regressed, claim_met = [], False, None
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = _pairs(name, base, change)
        if not pairs:
            continue
        b_q1, b_med, b_q3 = _quartiles([b for b, _ in pairs])
        c_med = statistics.median(c for _, c in pairs)
        gain = (b_med - c_med) if lower else (c_med - b_med)  # > 0: the change is better
        if name == claim:
            wins = _wins(pairs, lower)
            claim_met = 10 * wins >= 9 * len(pairs) and gain > b_q3 - b_q1
            lines.append(f"{'claim_met' if claim_met else 'claim_not_met'}: `{name}` won "
                         f"{wins}/{len(pairs)} pairs (needs {-(-9 * len(pairs) // 10)}), "
                         f"median gain {_fmt(gain)} against the base IQR {_fmt(b_q3 - b_q1)}")
        elif "bound" in m and b_med and -gain / abs(b_med) > m["bound"]:
            regressed = True
            lines.append(f"regressed: `{name}` median {_fmt(b_med)} -> {_fmt(c_med)} "
                         f"({100 * -gain / abs(b_med):.1f} % worse, bound "
                         f"{100 * m['bound']:g} %)")
    if claim is not None and claim_met is None:
        raise ValueError(f"claimed metric {claim!r} is missing from the runs")
    word = ("regressed" if regressed else "ok" if claim_met is None
            else "claim_met" if claim_met else "claim_not_met")
    return lines + [f"verdict: {word}"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the A side")
    p.add_argument("--workload", required=True, choices=("stream-50ms", "offline-1s", "sweep"))
    p.add_argument("--pairs", type=int, required=True, help="number of run pairs")
    p.add_argument("--seconds", type=float, default=30.0, help="measured phase per run")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--claim", metavar="METRIC", help="end-to-end metric the change claims")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        p.error(f"--claim {args.claim!r} is not an end-to-end metric of BENCHMARK.json")

    tmp = Path(tempfile.mkdtemp(prefix="gse-ab-"))
    try:
        sides = {"base": tmp / "a", "change": tmp / "b"}
        for side in sides.values():
            side.mkdir()
        export(args.base, sides["base"])
        copy_checkout(sides["change"])
        results = {"base": [], "change": []}
        failed = 0
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                res, _ = run_once(sides[side], args.workload, args.seed + i, args.seconds)
                failed += res["failed"] > 0
                results[side].append({k: m["value"] for k, m in res["metrics"].items()})
                print(f"pair {i + 1}/{args.pairs} {side}: failed {res['failed']}/"
                      f"{res['attempted']}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(HEADER)
    print("\n".join(summarize(args.workload, metrics, results["base"], results["change"])))
    print()
    print("\n".join(verdict(metrics, results["base"], results["change"], args.claim)))
    if failed:
        print(f"ab: {failed} run(s) reported failed > 0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
