"""The benchmark's per-layer trace patches library names; each of them must resolve.

``gsebench/layertrace.py`` wraps functions and methods of ``gse`` where their
callers look them up.  A renamed target only leaves a "not traced" note there
and its per-layer metrics read 0, so this checks the names here, reading the
benchmark's modules without changing them, and checks that a traced run sees
each hot-path call it counts: one span per call that the ledger counts.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import gse

GSEBENCH = Path(__file__).resolve().parent.parent / "gsebench"


@pytest.fixture(scope="module")
def layertrace():
    sys.path.insert(0, str(GSEBENCH))
    try:
        import layertrace
    finally:
        sys.path.remove(str(GSEBENCH))
    return layertrace


def test_every_target_resolves_on_the_library(layertrace):
    unresolved = [f"{getattr(owner, '__name__', owner)}.{attr}"
                  for owner, attr, *_ in layertrace.targets() if not hasattr(owner, attr)]
    assert unresolved == []
    with layertrace.patched(layertrace.Tracer()) as missing:
        assert missing == []


@pytest.mark.parametrize("n_phi", [0, 12, 30])
def test_a_traced_stream_counts_every_hot_path_call(layertrace, n_phi):
    """Spans per chunk equal the ledger's counts, so no hot-path call bypasses the name
    the trace patches; each pushed chunk goes through ``process_chunk`` once."""
    params, sampler = gse.SdeParams(N=6), gse.SamplerConfig(corrector_steps=1)
    score = gse.ScoreNet(params, frame_size=8, hidden=6, emb_dim=4, seed=0)
    denoiser = gse.DenoiserNet(frame_size=8, hidden=6, seed=1)
    if n_phi == 0:
        provider = gse.LearnedScore(score, params)
    elif n_phi == 30:
        provider = gse.DiscriminativeScore(denoiser, params)
    else:
        provider = gse.HybridScore(score, denoiser, params)
    schedule = gse.GuidanceSchedule.from_guided_steps(n_phi * params.N // 30, params)
    stream = gse.StreamConfig(chunk_ms=2.0, sample_rate=16000)  # 32 samples, 4 frames
    enhancer = gse.StreamEnhancer(stream, provider, schedule, sampler, params, seed=0)
    tracer = layertrace.Tracer()
    chunks = np.linspace(-0.5, 0.5, 2 * stream.chunk_size).reshape(2, -1)
    with layertrace.patched(tracer) as missing:
        for chunk in chunks:
            enhancer.push(chunk)
    assert missing == []
    calls = layertrace.round_counts(tracer.spans)
    ledger = enhancer.ledger
    assert calls.get("calls:nets.score_forward", 0) == ledger.score_net_forwards
    assert calls.get("calls:nets.denoiser_forward", 0) == ledger.denoiser_forwards
    assert calls.get("calls:score.guided_eval", 0) == 2 * ledger.steps_guided
    pushes = len(chunks)
    assert calls["calls:streaming.push"] == calls["calls:streaming.process_chunk"] == pushes
    assert calls["calls:score.bind"] == calls["calls:sampler.reverse"] == pushes
    assert calls["calls:sampler.predictor"] == pushes * params.N
    assert calls["calls:sampler.corrector"] == ledger.corrector_evals == pushes * params.N
    assert calls["corrector_skips"] == ledger.corrector_skips
