import gse
import gse.streaming
import numpy as np
import pytest

import layertrace
import recipe
from layertrace import Span, Tracer, self_times


def span(name, t0, t1, parent):
    s = Span(name, None, t0, parent)
    s.t1 = t1
    return s


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("x", 1.0, 5.0, 0),
        span("y", 3.0, 7.0, 0),  # overlaps x: the union 1..7 is covered
        span("z", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    paths = recipe.write_checkpoints(tmp_path_factory.mktemp("ckpt"), gse.SdeParams())
    return recipe.set_up(*paths, hybrid_everywhere=False)[0]


def _offline(setup, n_phi):
    y = recipe.utterance(0, 0.01)  # 160 samples, 4 frames
    return gse.streaming.enhance_offline(
        y, setup.providers[n_phi], setup.schedules[n_phi], setup.sampler, setup.params, 0,
        frame_size=recipe.FRAME)


def test_patched_traces_nested_calls_and_restores_every_name(setup):
    originals = [(o, a, getattr(o, a)) for o, a, *_ in layertrace.targets()]
    tracer = Tracer()
    with layertrace.patched(tracer) as missing:
        with tracer.request(12):
            _offline(setup, 12)
    assert missing == []
    assert all(getattr(o, a) is f for o, a, f in originals)
    names = [s.name for s in tracer.spans]
    assert names[0] == "request" and all(s.group == 12 for s in tracer.spans)
    reverse = names.index("sampler.reverse")
    assert tracer.spans[reverse].parent == names.index("streaming.process_chunk")
    counts = layertrace.round_counts(tracer.spans)
    assert counts["calls:nets.score_forward"] == (1 + recipe.CORRECTORS) * (30 - 12)
    assert counts["calls:nets.denoiser_forward"] == 1
    assert counts["frames"] == 4 * (counts["calls:nets.score_forward"] + 1)


def test_round_counts_repeat_exactly(setup):
    rounds = []
    for _ in range(2):
        tracer = Tracer()
        with layertrace.patched(tracer):
            with tracer.request(30):
                _offline(setup, 30)
        rounds.append(layertrace.round_counts(tracer.spans))
    assert rounds[0] == rounds[1]


def test_layer_shares_stay_within_their_group(setup):
    tracer = Tracer()
    with layertrace.patched(tracer):
        for g in recipe.GROUPS:
            with tracer.request(g):
                _offline(setup, g)
    counts = layertrace.round_counts(tracer.spans)
    metrics, _ = layertrace.layer_metrics(tracer.spans, recipe.GROUPS, counts, setup)
    for g in recipe.GROUPS:
        shares = [v for k, (v, unit) in metrics.items() if k.endswith(f"nphi{g}") and "self" in k]
        assert 0.0 <= sum(shares) <= 1.0
    assert metrics["nets.score_forward.share.nphi30"][0] == 0.0
    assert metrics["nets.frames_per_call"][0] == 4
    assert np.isfinite(metrics["nets.gmac_per_s"][0]) and metrics["nets.gmac_per_s"][0] > 0
