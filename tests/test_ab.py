"""The summary table of scripts/ab.py on fixed numbers."""

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
