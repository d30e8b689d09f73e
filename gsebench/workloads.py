"""The three workloads: rounds of fixed work, correctness checks, timed and traced loops.

A round is one request set per n_phi group.  The timed phase repeats rounds
until its time is up; the traced run alternates untraced and traced rounds of
the same work, so that the two walls give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import gse
import gse.cli
import gse.streaming
import numpy as np

import checks
import layertrace
import recipe
import reference
from recipe import FRAME, GROUPS, SAMPLE_RATE, STREAM

CHUNK = STREAM.chunk_size
CHUNK_S = CHUNK / SAMPLE_RATE
STREAM_CHUNKS = 10  # chunks per stream; the next stream starts from fresh history
OFFLINE_S = 1.0
SWEEP_SEEDS = (0, 1, 2)  # sweep-nphi's default run seeds
SWEEP_UTTERANCES = 4  # sweep-nphi's default utterances per cell
SWEEP_UTTERANCE_S = gse.MixSpec().duration_s
# Cells are handed to workers in list order.  With the cheap n_phi = 30 cells
# between the two costly groups they always run beside an n_phi = 0 cell;
# listed last they would run alone or not, depending on who finishes first.
SWEEP_ORDER = (0, 30, 12)
INPUT_POOL = 4  # distinct utterances cycled through; content does not change the work
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass
class Request:
    group: int
    seconds: float  # service time
    audio_s: float


@dataclass
class Run:
    """Successful timed requests, and attempted/failed over every request and check."""

    requests: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, problems: list[str], count: int = 1) -> None:
        """Count ``count`` attempts; they failed if there is any problem."""
        self.attempted += count
        if problems:
            self.failed += count
            self.failures.extend(problems)

    def add(self, request: Request, problems: list[str]) -> None:
        """A completed request; its time counts only if its checks passed."""
        self.check(problems)
        if not problems:
            self.requests.append(request)


def _span(tracer, group):
    return tracer.request(group) if tracer is not None else contextlib.nullcontext()


def _error(exc: Exception, what: str) -> list[str]:
    return [f"{what}: {type(exc).__name__}: {exc}"]


def _reference_checks(run: Run, request, ref, what: str) -> None:
    """The seeded reference request matches its stored output and repeats bit for bit."""
    run.check(checks.reference_failures(request(), ref, reference.RTOL, f"{what} reference"))
    run.check(checks.repeat_failures(request, what))


# --------------------------------------------------------------------------
# stream-50ms: closed-loop push/pull of 50 ms chunks
# --------------------------------------------------------------------------


class Stream:
    name = "stream-50ms"
    processes = 1
    hybrid_everywhere = False

    def __init__(self, setup, workdir: Path, seed: int):
        self.setup = setup
        self.pool = [recipe.utterance(seed + i, STREAM_CHUNKS * CHUNK_S) for i in range(INPUT_POOL)]

    def stream(self, y, n_phi, seed, tracer=None, times=None):
        """Push each chunk once the previous one was pulled; returns (outputs, ledgers)."""
        s = self.setup
        enh = gse.StreamEnhancer(STREAM, s.providers[n_phi], s.schedules[n_phi], s.sampler,
                                 s.params, seed)
        outs = []
        for start in range(0, y.size, CHUNK):
            with _span(tracer, n_phi):
                t0 = time.perf_counter()
                enh.push(y[start : start + CHUNK])
                outs.append(enh.pull())
                if times is not None:
                    times.append(time.perf_counter() - t0)
        return outs, enh.chunk_ledgers

    def warm_up(self):
        for g in GROUPS:
            self.stream(self.pool[0][: 2 * CHUNK], g, seed=0)

    def round(self, idx: int, run: Run, tracer=None, inline=False) -> float:
        """One stream per group; returns the audio seconds it enhanced."""
        for g in GROUPS:
            y = self.pool[idx % INPUT_POOL]
            times: list[float] = []
            try:
                _, ledgers = self.stream(y, g, seed=idx, tracer=tracer, times=times)
            except Exception as exc:  # a broken stream fails all its chunks; the run goes on
                run.check(_error(exc, f"stream n_phi={g} chunk {len(times)}"), STREAM_CHUNKS)
                continue
            exp = recipe.expected_ledger(g, CHUNK, self.setup.params.N, recipe.uses_denoiser(g))
            for c, (dt, ledger) in enumerate(zip(times, ledgers)):
                what = f"stream n_phi={g} round {idx} chunk {c}"
                run.add(Request(g, dt, CHUNK_S), checks.ledger_failures(ledger, exp, what))
        return len(GROUPS) * STREAM_CHUNKS * CHUNK_S

    def checks(self, run: Run) -> None:
        refs = reference.load()
        for g in GROUPS:
            def ref_request(g=g):
                return np.concatenate(self.stream(reference.stream_input(), g, seed=0)[0])

            _reference_checks(run, ref_request, refs[f"stream.nphi{g}"], f"stream n_phi={g}")
            run.check(checks.causality_failures(
                lambda y, g=g: self.stream(y, g, seed=1)[0], self.pool[1][: 3 * CHUNK], CHUNK, 2,
                f"stream n_phi={g}"))


# --------------------------------------------------------------------------
# offline-1s: enhance_offline on whole 1 s utterances
# --------------------------------------------------------------------------


class Offline:
    name = "offline-1s"
    processes = 1
    hybrid_everywhere = False

    def __init__(self, setup, workdir: Path, seed: int):
        self.setup = setup
        self.pool = [recipe.utterance(seed + i, OFFLINE_S) for i in range(INPUT_POOL)]

    def enhance(self, y, n_phi, seed):
        s = self.setup
        # looked up on the module at call time, so that the traced run sees it
        return gse.streaming.enhance_offline(
            y, s.providers[n_phi], s.schedules[n_phi], s.sampler, s.params, seed,
            frame_size=FRAME, sample_rate=SAMPLE_RATE,
        )

    def warm_up(self):
        for g in GROUPS:
            self.enhance(self.pool[0][: 2 * CHUNK], g, seed=0)

    def round(self, idx: int, run: Run, tracer=None, inline=False) -> float:
        """One utterance per group; returns the audio seconds it enhanced."""
        y = self.pool[idx % INPUT_POOL]
        for g in GROUPS:
            try:
                with _span(tracer, g):
                    t0 = time.perf_counter()
                    _, ledger, _ = self.enhance(y, g, seed=idx)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # a failed request is counted, the run goes on
                run.check(_error(exc, f"offline n_phi={g}"))
                continue
            exp = recipe.expected_ledger(g, y.size, self.setup.params.N, recipe.uses_denoiser(g))
            run.add(Request(g, dt, OFFLINE_S),
                    checks.ledger_failures(ledger, exp, f"offline n_phi={g} round {idx}"))
        return len(GROUPS) * OFFLINE_S

    def checks(self, run: Run) -> None:
        refs = reference.load()
        for g in GROUPS:
            def ref_request(g=g):
                return self.enhance(reference.offline_input(), g, seed=0)[0]

            _reference_checks(run, ref_request, refs[f"offline.nphi{g}"], f"offline n_phi={g}")


# --------------------------------------------------------------------------
# sweep: `gse sweep-nphi` called in process, GSE_THREADS = nproc workers
# --------------------------------------------------------------------------


@contextlib.contextmanager
def _gse_threads(n: int):
    old = os.environ.get("GSE_THREADS")
    os.environ["GSE_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["GSE_THREADS"]
        else:
            os.environ["GSE_THREADS"] = old


class Sweep:
    name = "sweep"
    processes = os.cpu_count() or 1
    hybrid_everywhere = True  # sweep-nphi always builds the hybrid provider

    def __init__(self, setup, workdir: Path, seed: int):
        self.setup = setup
        self.workdir = workdir
        self.seed = seed
        self.workers = 0  # as the last command's manifest recorded it

    def command(self, mix_seed: int, threads: int, seeds=SWEEP_SEEDS,
                utterances=SWEEP_UTTERANCES, tracer=None):
        """Run one sweep-nphi; returns (exit code, sweep.csv rows)."""
        out = self.workdir / "sweep"
        data = self.workdir / "mix.txt"
        gse.MixSpec(seed=mix_seed).to_file(data)
        argv = ["sweep-nphi", "--out", str(out), "--data-config", str(data),
                "--score-ckpt", str(self.setup.score_path),
                "--denoiser-ckpt", str(self.setup.denoiser_path),
                "--n-phi-list", ",".join(map(str, SWEEP_ORDER)),
                "--seeds", ",".join(map(str, seeds)), "--utterances", str(utterances)]
        try:
            with _gse_threads(threads), contextlib.redirect_stdout(io.StringIO()):
                with _span(tracer, None):
                    code = gse.cli.main(argv)  # module lookup, so that the traced run sees it
            rows = []
            if code == 0:
                with open(out / "sweep.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                self.workers = json.loads((out / "manifest.json").read_text())["config"]["workers"]
            return code, rows
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def warm_up(self):
        self.command(self.seed, self.processes, seeds=(0,), utterances=1)

    def round(self, idx: int, run: Run, tracer=None, inline=False) -> float:
        """One sweep-nphi command; returns the audio seconds it enhanced.

        ``inline`` runs it with GSE_THREADS=1, so every cell stays in this process.
        """
        cells = len(SWEEP_SEEDS) * len(GROUPS)
        try:
            code, rows = self.command(self.seed + idx, 1 if inline else self.processes,
                                      tracer=tracer)
        except Exception as exc:  # a failed request is counted, the run goes on
            problems = _error(exc, "sweep-nphi")
            rows, code = [], None
        else:
            problems = [] if code == 0 else [f"sweep-nphi exited with {code}"]
        if not problems:
            problems = checks.sweep_csv_failures(rows, GROUPS, SWEEP_SEEDS, self.padded_samples(),
                                                 self.setup.params.N)
        audio = cells * SWEEP_UTTERANCES * SWEEP_UTTERANCE_S
        if problems:
            run.check(problems, cells)  # one bad sweep.csv fails every cell of the command
            return audio
        for r in rows:
            if r["seed"] != "median":
                # the CLI records each cell's median per-utterance rtf
                secs = float(r["rtf"]) * SWEEP_UTTERANCE_S
                run.add(Request(int(r["n_phi"]), secs, SWEEP_UTTERANCE_S), [])
        return audio

    @staticmethod
    def padded_samples() -> int:
        return -(-gse.MixSpec().n_samples // FRAME) * FRAME

    def checks(self, run: Run) -> None:
        refs = reference.load()
        tables = []
        for _ in range(2):
            code, rows = self.command(reference.REF_SEED, self.processes, **reference.SWEEP)
            if code != 0:
                run.check([f"reference sweep-nphi exited with {code}"])
                return
            cells = sorted((r for r in rows if r["seed"] != "median"), key=lambda r: int(r["n_phi"]))
            tables.append([{k: v for k, v in r.items() if k != "rtf"} for r in cells])
        for col in ("sdr_db", "lsd"):
            got = [float(r[col]) for r in tables[0]]
            run.check(checks.reference_failures(got, refs[f"sweep.{col}"], reference.SWEEP_RTOL,
                                                f"sweep {col} reference"))
        run.check([] if tables[0] == tables[1] else
                  ["sweep: a repeated command changed the deterministic sweep.csv columns"])


WORKLOADS = {w.name: w for w in (Stream, Offline, Sweep)}


# --------------------------------------------------------------------------
# Loops
# --------------------------------------------------------------------------


def timed(workload, run: Run, seconds: float) -> tuple[float, float]:
    """Repeat rounds for ``seconds``; returns (wall s, audio s enhanced)."""
    workload.warm_up()
    audio, idx = 0.0, 0
    t0 = time.perf_counter()
    while True:
        audio += workload.round(idx, run)
        idx += 1
        if time.perf_counter() - t0 >= seconds:
            return time.perf_counter() - t0, audio


@dataclass
class TraceResult:
    tracer: layertrace.Tracer
    counts: list  # exact counts of each traced round
    untraced_s: list
    traced_s: list
    parallel_s: float  # one untraced round with the workload's worker processes
    workers: int  # worker processes of that round, from its manifest
    missing: list


def traced(workload, run: Run, seconds: float) -> TraceResult:
    """Pairs of one untraced and one traced round of identical work, for ``seconds``.

    The side that runs first alternates between pairs, so that a drift in
    machine speed does not bias the overhead; there are at least two pairs.
    """
    workload.warm_up()
    tracer = layertrace.Tracer()
    res = TraceResult(tracer, [], [], [], 0.0, 0, [])
    start = time.perf_counter()
    if workload.processes > 1:
        workload.round(0, run)
        res.parallel_s = time.perf_counter() - start
        res.workers = getattr(workload, "workers", 0)
    idx = 0
    while True:
        pair_start = time.perf_counter()
        for traced_side in ((False, True) if idx % 2 == 0 else (True, False)):
            first = len(tracer.spans)
            with layertrace.patched(tracer) if traced_side else contextlib.nullcontext([]) as missing:
                t0 = time.perf_counter()
                workload.round(idx, run, tracer=tracer if traced_side else None, inline=True)
                elapsed = time.perf_counter() - t0
            if traced_side:
                res.traced_s.append(elapsed)
                res.missing = missing
                res.counts.append(layertrace.round_counts(tracer.spans[first:]))
            else:
                res.untraced_s.append(elapsed)
        idx += 1
        now = time.perf_counter()
        if idx >= 2 and now - start + (now - pair_start) > seconds:
            return res  # the next pair would run past the time


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    Nearest rank.  Below 20 samples no percentile from the median up has ten
    beyond it, and the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def end_to_end(run: Run, setup_s: float, wall_s: float, audio_s: float):
    """End-to-end metrics as name -> (value, unit), plus notes on how each tail was taken."""
    m = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB"),
         "rtf.all": (wall_s / audio_s, "s/s")}
    by_group = {g: [r for r in run.requests if r.group == g] for g in GROUPS}
    if not all(by_group.values()):
        return m, ["a group had no successful request; its metrics are missing"]
    for g, reqs in by_group.items():
        m[f"rtf.nphi{g}"] = (sum(r.seconds for r in reqs) / sum(r.audio_s for r in reqs), "s/s")
    for g, reqs in by_group.items():
        m[f"chunk_ms.p50.nphi{g}"] = (statistics.median(1e3 * r.seconds for r in reqs), "ms")
    notes = []
    for g, reqs in by_group.items():
        p, v = tail([1e3 * r.seconds for r in reqs])
        m[f"chunk_ms.tail.nphi{g}"] = (v, "ms")
        notes.append(f"chunk_ms.tail.nphi{g} is p{p:g} of {len(reqs)} samples")
    return m, notes


def per_layer(res: TraceResult, setup, run: Run):
    """Per-layer metrics of a traced run, plus notes on absent metrics."""
    unstable = [i for i, c in enumerate(res.counts) if c != res.counts[0]]
    run.check([f"trace counts of rounds {unstable} differ from round 0"] if unstable else [])
    m, notes = layertrace.layer_metrics(res.tracer.spans, GROUPS, res.counts[0], setup)
    untraced, traced_s = sum(res.untraced_s), sum(res.traced_s)
    m["trace.overhead"] = ((traced_s - untraced) / untraced, "share")
    m["trace.untraced_wall_s"] = (statistics.median(res.untraced_s), "s")
    m["trace.traced_wall_s"] = (statistics.median(res.traced_s), "s")
    m["trace.parallel_wall_s"] = (res.parallel_s, "s")
    m["cli.workers"] = (res.workers, "count")
    if not res.parallel_s:
        notes.append("trace.parallel_wall_s, cli.workers: this workload runs in one process")
    notes += [f"not traced (name not found): {name}" for name in res.missing]
    return m, notes
