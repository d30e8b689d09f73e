"""The summary table and the verdict of scripts/ab.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "setup_s", "better": "lower"}, {"name": "rtf.all", "better": "lower"},
           {"name": "score", "better": "higher"}, {"name": "absent", "better": "lower"}]


def test_summary_rows(ab):
    base = [{"setup_s": 0.002, "rtf.all": r, "score": 1.0} for r in (0.2, 0.3, 0.4, 0.5, 0.6)]
    change = [{"setup_s": 0.003, "rtf.all": r, "score": s}
              for r, s in ((0.1, 2.0), (0.35, 0.5), (0.2, 2.0), (0.3, 1.0), (0.5, 3.0))]
    rows = ab.summarize("sweep", METRICS, base, change)
    assert rows == [
        "| sweep (5) | `setup_s` ms | 2 [2, 2] | 3 [3, 3] | +50.0 % | 0/5 |",
        "| sweep (5) | `rtf.all` | 0.4 [0.3, 0.5] | 0.3 [0.2, 0.35] | -25.0 % | 4/5 |",
        "| sweep (5) | `score` | 1 [1, 1] | 2 [1, 2] | +100.0 % | 3/5 |",
    ]


def test_single_pair_has_degenerate_quartiles(ab):
    rows = ab.summarize("offline-1s", METRICS[1:2], [{"rtf.all": 0.5}], [{"rtf.all": 0.25}])
    assert rows == ["| offline-1s (1) | `rtf.all` | 0.5 [0.5, 0.5] | 0.25 [0.25, 0.25] "
                    "| -50.0 % | 1/1 |"]


BOUNDED = [{"name": "setup_s", "better": "lower", "bound": 0.25},
           {"name": "rtf.all", "better": "lower", "bound": 0.25},
           {"name": "chunk_ms.p50.nphi30", "better": "lower", "bound": 0.25},
           {"name": "score", "better": "higher", "bound": 0.1}]


def _runs(**columns):
    """One {name: value} dict per pair from per-metric value lists."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def test_setup_slower_than_its_bound_regresses(ab):
    """Six offline pairs whose set-up median rose 25.8 % against a 25 % bound."""
    base = _runs(setup_s=[5.0, 5.2, 5.4, 5.5, 5.6, 6.0])
    change = _runs(setup_s=[6.5, 6.6, 6.8, 6.9, 7.0, 7.3])
    lines = ab.verdict(BOUNDED, base, change)
    assert lines == ["regressed: `setup_s` median 5.45 -> 6.85 (25.7 % worse, bound 25 %)",
                     "verdict: regressed"]
    # within the bound nothing is flagged
    assert ab.verdict(BOUNDED, base, base) == ["verdict: ok"]


def test_a_higher_is_better_metric_regresses_when_it_falls(ab):
    lines = ab.verdict(BOUNDED, _runs(score=[10.0, 10.0]), _runs(score=[8.0, 8.5]))
    assert lines[-1] == "verdict: regressed" and "`score`" in lines[0]


def test_median_gain_inside_the_base_spread_is_no_claim(ab):
    """Ten pairs: 10/10 won, but the medians differ by less than the base IQR."""
    ms = [4.2, 4.4, 4.6, 4.8, 4.85, 4.89, 5.0, 5.2, 5.4, 5.6]
    base = _runs(**{"chunk_ms.p50.nphi30": ms})
    change = _runs(**{"chunk_ms.p50.nphi30": [v - 0.48 for v in ms]})
    lines = ab.verdict(BOUNDED, base, change, claim="chunk_ms.p50.nphi30")
    assert lines == ["claim_not_met: `chunk_ms.p50.nphi30` won 10/10 pairs (needs 9), "
                     "median gain 0.48 against the base IQR 0.5",
                     "verdict: claim_not_met"]


def test_too_few_wins_is_no_claim(ab):
    base = _runs(**{"rtf.all": [0.15] * 10})
    change = _runs(**{"rtf.all": [0.13] * 8 + [0.15, 0.16]})  # a tie and a loss
    lines = ab.verdict(BOUNDED, base, change, claim="rtf.all")
    assert lines[0].startswith("claim_not_met: `rtf.all` won 8/10 pairs (needs 9)")


def test_claim_met(ab):
    base = _runs(**{"rtf.all": [0.150, 0.152, 0.149, 0.151, 0.153, 0.150, 0.152, 0.148, 0.151,
                                0.150]})
    change = _runs(**{"rtf.all": [0.137, 0.138, 0.136, 0.151, 0.139, 0.135, 0.137, 0.138, 0.136,
                                  0.137]})
    lines = ab.verdict(BOUNDED, base, change, claim="rtf.all")
    assert lines[-1] == "verdict: claim_met"
    assert lines[0].startswith("claim_met: `rtf.all` won 9/10 pairs (needs 9)")  # one tie


def test_a_regression_outranks_a_met_claim(ab):
    base = _runs(**{"rtf.all": [0.15] * 10, "setup_s": [0.005] * 10})
    change = _runs(**{"rtf.all": [0.13] * 10, "setup_s": [0.007] * 10})
    lines = ab.verdict(BOUNDED, base, change, claim="rtf.all")
    assert [line.split(":")[0] for line in lines] == ["regressed", "claim_met", "verdict"]
    assert lines[-1] == "verdict: regressed"


def test_claim_missing_from_the_runs_is_an_error(ab):
    with pytest.raises(ValueError, match="rtf.all"):
        ab.verdict(BOUNDED, _runs(score=[1.0]), _runs(score=[1.0]), claim="rtf.all")
