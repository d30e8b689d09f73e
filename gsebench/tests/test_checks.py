import dataclasses

import gse
import numpy as np
import pytest

import checks
import recipe
import workloads


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    paths = recipe.write_checkpoints(tmp_path_factory.mktemp("ckpt"), gse.SdeParams())
    return recipe.set_up(*paths, hybrid_everywhere=False)[0]


@pytest.fixture(scope="module")
def stream(setup, tmp_path_factory):
    return workloads.Stream(setup, tmp_path_factory.mktemp("work"), seed=0)


def _ledger(setup, n_phi, n_samples):
    y = recipe.utterance(0, n_samples / recipe.SAMPLE_RATE)
    _, ledger, _ = gse.streaming.enhance_offline(
        y, setup.providers[n_phi], setup.schedules[n_phi], setup.sampler, setup.params, 0,
        frame_size=recipe.FRAME)
    return ledger


@pytest.mark.parametrize("n_phi", recipe.GROUPS)
def test_real_ledgers_match_the_closed_form(setup, n_phi):
    exp = recipe.expected_ledger(n_phi, 80, 30, recipe.uses_denoiser(n_phi))
    assert checks.ledger_failures(_ledger(setup, n_phi, 80), exp, "x") == []


@pytest.mark.parametrize("field,delta", [("score_net_forwards", 1), ("denoiser_forwards", 1),
                                         ("mac_total", -1), ("corrector_evals", 2)])
def test_ledger_check_fires_on_a_wrong_ledger(setup, field, delta):
    ledger = _ledger(setup, 12, 80)
    setattr(ledger, field, getattr(ledger, field) + delta)
    exp = recipe.expected_ledger(12, 80, 30, True)
    assert any(field in p for p in checks.ledger_failures(ledger, exp, "x"))


def test_closed_form_macs_are_independent_of_the_nets():
    exp = recipe.expected_ledger(0, 800, 30, False)
    # 20 frames, 60 score forwards of 160*112 + 4*160^2 + 40*320 MACs each
    assert exp.mac_total == 20 * 60 * (160 * 112 + 4 * 160 * 160 + 40 * 320)


def test_repeat_check_passes_a_seeded_request_and_fires_on_an_unseeded_one():
    assert checks.repeat_failures(lambda: np.random.default_rng(3).standard_normal(8), "x") == []
    assert checks.repeat_failures(lambda: np.random.default_rng().standard_normal(8), "x")


def test_reference_check_admits_rounding_and_catches_changed_output():
    ref = np.sin(np.arange(1000.0))
    assert checks.reference_failures(ref * (1 + 1e-15), ref, 1e-12, "x") == []
    assert checks.reference_failures(ref * (1 + 1e-9), ref, 1e-12, "x")
    assert checks.reference_failures(ref[:-1], ref, 1e-12, "x")
    assert checks.reference_failures(ref * np.nan, ref, 1e-12, "x")


def _peak_normalised(cumulative):
    def stream(y):
        chunks = [y[i : i + 4] for i in range(0, y.size, 4)]
        peaks = np.maximum.accumulate([np.max(np.abs(c)) for c in chunks])
        if not cumulative:
            peaks = np.full(len(chunks), peaks[-1])  # looks at the whole signal
        return [c / p for c, p in zip(chunks, peaks)]

    return stream


def test_causality_check_fires_on_a_non_causal_stream():
    y = np.linspace(-0.1, 0.1, 16)  # the change to chunk 2 raises the global peak
    assert checks.causality_failures(_peak_normalised(True), y, 4, 2, "x") == []
    assert checks.causality_failures(_peak_normalised(False), y, 4, 2, "x")


def test_causality_check_passes_the_real_stream(stream):
    y = stream.pool[0][: 3 * workloads.CHUNK]
    assert checks.causality_failures(lambda y: stream.stream(y, 30, seed=1)[0], y,
                                     workloads.CHUNK, 2, "x") == []


def _sweep_rows(n_samples):
    rows = []
    for n_phi in recipe.GROUPS:
        exp = recipe.expected_ledger(n_phi, n_samples, 30, with_denoiser=True)
        for seed in ("0", "median"):
            rows.append({"n_phi": str(n_phi), "seed": seed, "sdr_db": "1.0", "lsd": "2.0",
                         "score_net_forwards": str(exp.score_net_forwards),
                         "mac_total": str(exp.mac_total), "rtf": "0.5"})
    return rows


def test_sweep_csv_check_fires_on_wrong_columns_and_missing_rows():
    rows = _sweep_rows(4000)
    assert checks.sweep_csv_failures(rows, recipe.GROUPS, (0,), 4000, 30) == []
    wrong = [dict(r) for r in rows]
    wrong[2]["mac_total"] = str(int(wrong[2]["mac_total"]) + 1)
    assert checks.sweep_csv_failures(wrong, recipe.GROUPS, (0,), 4000, 30)
    assert checks.sweep_csv_failures(rows[1:], recipe.GROUPS, (0,), 4000, 30)


@pytest.mark.parametrize("n,p", [(19, 50.0), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
                                 (200, 95.0), (1000, 99.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, p):
    got_p, value = workloads.tail(list(range(n)))
    assert got_p == p
    if n >= 20:
        assert sum(v > value for v in range(n)) >= 10


def test_expected_ledger_fields_match_cost_ledger_fields():
    names = {f.name for f in dataclasses.fields(recipe.ExpectedLedger)}
    assert names <= {f.name for f in dataclasses.fields(gse.CostLedger)}
