"""Outside-in layer tracing: spans around the public calls of each gse layer.

Each traced name is patched where the caller looks it up (a module global or
a class attribute), so ``gse`` itself is not modified.  Spans are kept in
memory; a layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

import gse
import gse.audio
import gse.cli
import gse.nets
import gse.sampler
import gse.score
import gse.sde
import gse.streaming

from recipe import DENOISER_MACS_PER_FRAME, FRAME, SCORE_MACS_PER_FRAME

SDE_FUNCS = ("drift", "diffusion_coeff", "mean", "variance", "std")


class Span:
    __slots__ = ("name", "group", "t0", "t1", "parent", "samples", "skipped")

    def __init__(self, name, group, t0, parent):
        self.name, self.group, self.t0, self.parent = name, group, t0, parent
        self.t1 = t0
        self.samples = 0
        self.skipped = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records nested spans; ``group`` tags each span with the request's n_phi."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.group = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.group, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, group):
        """The benchmark's own span around one request of an n_phi group."""
        self.group = group
        span = self._open("request")
        try:
            yield
        finally:
            self._close(span)
            self.group = None

    def wrap(self, name: str, fn, after=None, group_of=None):
        """Wrap ``fn`` in a span; ``after(span, args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_group = self.group
            if group_of is not None:
                self.group = group_of(args)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                self.group = outer_group
            if after is not None:
                after(span, args, result)
            return result

        return traced


def _samples_of_first_arg(span, args, result):
    span.samples = args[1].size  # (self, signal, ...)


def _corrector_skipped(span, args, result):
    # a skipped corrector step returns a copy of its input state
    span.skipped = result.x.tobytes() == args[0].x.tobytes()


def _cell_group(args):
    return args[0]["n_phi"]


def targets():
    """(owner, attribute, span name, after, group_of) for every traced lookup site."""
    t = [
        (gse.nets.ScoreNet, "forward", "nets.score_forward", _samples_of_first_arg, None),
        (gse.nets.DenoiserNet, "forward", "nets.denoiser_forward", _samples_of_first_arg, None),
        (gse.score.LearnedScore, "bind", "score.bind", None, None),
        (gse.score.DiscriminativeScore, "bind", "score.bind", None, None),
        (gse.score.HybridScore, "bind", "score.bind", None, None),
        (gse.score, "discriminative_score", "score.guided_eval", None, None),
        (gse.streaming, "reverse_process", "sampler.reverse", None, None),
        (gse.sampler, "predictor_step", "sampler.predictor", None, None),
        (gse.sampler, "corrector_step", "sampler.corrector", _corrector_skipped, None),
        (gse.streaming.StreamEnhancer, "push", "streaming.push", None, None),
        (gse.streaming, "process_chunk", "streaming.process_chunk", None, None),
        (gse.streaming, "enhance_offline", "streaming.enhance_offline", None, None),
        (gse.cli, "enhance_offline", "streaming.enhance_offline", None, None),
        (gse.cli, "sdr_db", "audio.sdr", None, None),
        (gse.cli, "lsd", "audio.lsd", None, None),
        (gse.cli, "synthesize_pair", "audio.synthesize", None, None),
        (gse.audio, "fft_radix2", "audio.fft", None, None),
        (gse.cli, "main", "cli.main", None, None),
        (gse.cli, "load_checkpoint", "cli.load_checkpoint", None, None),
        # one sweep cell; only used to tag spans with the cell's n_phi
        (gse.cli, "_sweep_worker", "cli.cell", None, _cell_group),
    ]
    for mod in (gse.sampler, gse.score, gse.nets, gse.sde):
        t += [(mod, f, f"sde.{f}", None, None) for f in SDE_FUNCS if hasattr(mod, f)]
    return t


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block; yields the missing names."""
    undo, missing = [], []
    try:
        for owner, attr, name, after, group_of in targets():
            if not hasattr(owner, attr):
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            own = attr in vars(owner)
            undo.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after, group_of))
        yield missing
    finally:
        for owner, attr, own, original in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals inside it."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, end = 0.0, s.t0
        for k in sorted(kids, key=lambda k: spans[k].t0):
            lo, hi = max(spans[k].t0, end), min(spans[k].t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out.append(s.duration - covered)
    return out


def round_counts(spans: list[Span]) -> dict:
    """Exact counts of traced spans: calls per span name, frames, ledger MACs, skips."""
    counts: dict = {}
    for s in spans:
        counts[f"calls:{s.name}"] = counts.get(f"calls:{s.name}", 0) + 1
    fw = [s for s in spans if s.name in ("nets.score_forward", "nets.denoiser_forward")]
    counts["frames"] = sum(s.samples // FRAME for s in fw)
    counts["macs"] = sum(
        (s.samples // FRAME)
        * (SCORE_MACS_PER_FRAME if s.name == "nets.score_forward" else DENOISER_MACS_PER_FRAME)
        for s in fw
    )
    counts["corrector_skips"] = sum(s.skipped for s in spans if s.name == "sampler.corrector")
    return counts


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[Span], groups, counts: dict, setup) -> tuple[dict, list[str]]:
    """Per-layer metrics over all traced spans; counts are those of one round.

    Returns (metrics as name -> (value, unit), notes on absent metrics).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name):
        return [spans[i].duration for i in by_name.get(name, [])]

    def calls(name):
        return counts.get(f"calls:{name}", 0)

    # a group's time: its outermost spans (requests, or sweep cells)
    totals = {g: 0.0 for g in groups}
    # time per (group, span name) and per (group, layer): in full, and self
    full: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for s, self_t in zip(spans, selfs):
        if s.group in totals and (s.parent < 0 or spans[s.parent].group != s.group):
            totals[s.group] += s.duration
        full[s.group, s.name] += s.duration
        own[s.group, s.name] += self_t
        own[s.group, s.layer] += self_t

    m: dict = {}
    notes: list[str] = []

    def per_group(base, table, key):
        for g in groups:
            m[f"{base}.nphi{g}"] = (table[g, key] / totals[g] if totals[g] else 0.0, "share")

    for net in ("score_forward", "denoiser_forward"):
        name = f"nets.{net}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.ms_p50"] = (_median(durations(name), 1e3), "ms")
        per_group(f"{name}.share", full, name)
    fw_calls = calls("nets.score_forward") + calls("nets.denoiser_forward")
    fw_time = sum(durations("nets.score_forward")) + sum(durations("nets.denoiser_forward"))
    all_macs = round_counts(spans)["macs"]  # every traced round, to match fw_time
    m["nets.frames_per_call"] = (counts["frames"] / fw_calls if fw_calls else 0.0, "frames")
    m["nets.gmac_per_s"] = (all_macs / fw_time / 1e9 if fw_time else 0.0, "GMAC/s")

    binds = [i for i in by_name.get("score.bind", [])
             if spans[i].parent < 0 or spans[spans[i].parent].name != "score.bind"]
    m["score.bind.ms_p50"] = (_median([spans[i].duration for i in binds], 1e3), "ms")
    per_group("score.bind.self_share", own, "score.bind")
    m["score.guided_eval.calls"] = (calls("score.guided_eval"), "count")
    m["score.guided_eval.us_p50"] = (_median(durations("score.guided_eval"), 1e6), "us")
    per_group("score.guided_eval.share", full, "score.guided_eval")

    per_group("sampler.reverse.self_share", own, "sampler.reverse")
    m["sampler.predictor.calls"] = (calls("sampler.predictor"), "count")
    m["sampler.predictor.us_p50"] = (_median(durations("sampler.predictor"), 1e6), "us")
    per_group("sampler.predictor.self_share", own, "sampler.predictor")
    corr = calls("sampler.corrector")
    m["sampler.corrector.calls"] = (corr, "count")
    per_group("sampler.corrector.self_share", own, "sampler.corrector")
    m["sampler.corrector.skip_ratio"] = (counts["corrector_skips"] / corr if corr else 0.0, "share")

    m["sde.calls"] = (sum(v for k, v in counts.items() if k.startswith("calls:sde.")), "count")
    per_group("sde.self_share", own, "sde")

    push_self = [selfs[i] for i in by_name.get("streaming.push", [])]
    m["streaming.push.self_us_p50"] = (_median(push_self, 1e6), "us")
    per_group("streaming.push.self_share", own, "streaming.push")
    m["streaming.process_chunk.calls"] = (calls("streaming.process_chunk"), "count")
    for g in groups:
        m[f"streaming.bank_bytes.nphi{g}"] = (setup.bank_bytes(g), "B")
    if not push_self:
        notes.append("streaming.push.*: no StreamEnhancer.push on this workload")

    m["audio.sdr.ms_p50"] = (_median(durations("audio.sdr"), 1e3), "ms")
    m["audio.lsd.ms_p50"] = (_median(durations("audio.lsd"), 1e3), "ms")
    per_group("audio.share", own, "audio")
    if not by_name.get("audio.sdr"):
        notes.append("audio.*: this workload scores nothing, so audio reads 0")

    mains = by_name.get("cli.main", [])
    main_time = sum(spans[i].duration for i in mains)
    m["cli.main.self_share"] = (sum(selfs[i] for i in mains) / main_time if main_time else 0.0,
                                "share")
    m["cli.load_checkpoint.calls"] = (calls("cli.load_checkpoint"), "count")
    m["cli.load_checkpoint.ms_p50"] = (_median(durations("cli.load_checkpoint"), 1e3), "ms")
    if not mains:
        notes.append("cli.*: this workload does not go through the gse command line")
    for name in ("nets.score_forward", "nets.denoiser_forward", "score.guided_eval"):
        if not by_name.get(name):
            notes.append(f"{name}: not called on this workload")
    return m, notes
