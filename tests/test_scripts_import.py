"""Every script in scripts/ imports, so a renamed library name fails here rather than at use,
and the two demo scripts run as programs on tiny settings and print their tables."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # as `python scripts/<name>.py` has it
    spec = importlib.util.spec_from_file_location(f"scripts_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script's __main__ guard keeps it from running
    assert callable(module.main)


def run(*args, **env) -> list[list[str]]:
    """Run ``python args`` with this checkout's library; returns the words of each line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    return [line.split() for line in proc.stdout.splitlines()]


def test_quickstart_runs_and_prints_its_table(tmp_path):
    lines = run(SCRIPTS / "quickstart.py", "--score-steps", 2, "--denoiser-steps", 2,
                "--hidden", 8, "--utterances", 2, "--out", tmp_path)
    assert ["n_phi", "mode", "SDR", "out", "gain", "RTF", "MMACs"] in lines
    modes = [words[:2] for words in lines if len(words) == 6]
    assert modes == [["0", "learned"], ["12", "hybrid"], ["30", "discriminative"]]
    assert any(words[:3] == ["streaming", "(50", "ms"] for words in lines)


def test_trend_sweep_runs_and_prints_its_medians(tmp_path):
    for role in ("score", "denoiser"):
        run("-m", "gse.cli", "train", "--role", role, "--out", tmp_path / role, "--steps", 1,
            "--hidden", 8, "--frame-size", 40)
    lines = run(SCRIPTS / "run_trend_sweep.py", "--score-ckpt", tmp_path / "score" / "score.npz",
                "--denoiser-ckpt", tmp_path / "denoiser" / "denoiser.npz", "--n-phi-list", "0,30",
                "--seeds", 0, "--utterances", 1, "--out", tmp_path / "trend", GSE_THREADS="1")
    header = ["n_phi", "SDR", "dB", "LSD", "dB", "fwd", "MMACs", "RTF"]
    rows = lines[lines.index(header) + 1 :]
    assert [words[0] for words in rows] == ["0", "30"] and all(len(w) == 6 for w in rows)
