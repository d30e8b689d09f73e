#!/usr/bin/env python3
"""Print one SHA-256 per case over everything a run, a training run or a checkpoint writes.

    PYTHONPATH=src python3 scripts/dump_bits.py [--base REV]

Run on two trees (``PYTHONPATH=<tree>/src``), equal lines mean equal bits.
``--base REV`` does that itself: it exports ``REV`` with ``git archive``, as
``scripts/ab.py`` does, runs this script on the library of ``REV`` and on
this checkout's, prints every case whose digest differs (``name base
change``, ``-`` for a case one side lacks) and exits 1 on any difference.

The cases use the acceptance recipe's nets (frame 40, score net hidden 160,
denoiser hidden 96, N = 30, one corrector), randomly initialised from fixed
seeds:

* ``<provider>/nphi<n>/<mode>``: the enhanced samples and every ``CostLedger``
  field of ``LearnedScore``, ``HybridScore``, ``DiscriminativeScore`` and
  ``AnalyticGaussianScore`` at each n_phi in {0, 12, 30} the provider can run,
  whole-signal (``offline``), through ``StreamEnhancer`` in 50 ms chunks with
  each chunk's ledger (``stream``), and as one 3-row batch (``rows3``), and of
  ``skip``, a ``LearnedScore`` whose score net has a zero decoder, so that its
  score is zero and every corrector step skips and draws nothing;
* ``train/<role>``: a short ``train_score`` or ``train_denoiser`` curve,
  the trained weights, and the name and bytes of every array that
  ``save_checkpoint`` writes for the trained net (the zip container also
  stores its write time, so its own bytes differ from run to run).

The script uses only public names of the ``gse`` package.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

import gse
from gse.cli import make_dataset

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab import ROOT, export  # noqa: E402  (a sibling script, not a package)

FRAME = 40
SECONDS = 0.25
N_PHI = (0, 12, 30)
PARAMS = gse.SdeParams()
SAMPLER = gse.SamplerConfig(corrector_steps=1, corrector_snr=0.5)
STREAM = gse.StreamConfig(chunk_ms=50.0, sample_rate=16000)
TRAIN = gse.TrainConfig(steps=4, batch_size=4, learning_rate=1e-3, seed=5, probe_every=2)


def _nets():
    score = gse.ScoreNet(PARAMS, frame_size=FRAME, hidden=160, emb_dim=32, seed=0)
    denoiser = gse.DenoiserNet(frame_size=FRAME, hidden=96, seed=1)
    return score, denoiser


def _providers(score, denoiser) -> dict:
    """name -> (provider, the n_phi values it can run)."""
    silent, _ = _nets()
    for key in ("dec_w", "dec_b"):
        silent.params[key][...] = 0.0
    return {
        "learned": (gse.LearnedScore(score, PARAMS), (0,)),
        "hybrid": (gse.HybridScore(score, denoiser, PARAMS), N_PHI),
        "discriminative": (gse.DiscriminativeScore(denoiser, PARAMS), (PARAMS.N,)),
        "analytic": (gse.AnalyticGaussianScore(gse.GaussianPrior(0.0, 0.04), PARAMS), (0,)),
        "skip": (gse.LearnedScore(silent, PARAMS), (0,)),
    }


def _noisy(seed: int) -> np.ndarray:
    return gse.synthesize_pair(gse.MixSpec(seed=seed, duration_s=SECONDS))[1].samples


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _ledgers(ledgers) -> list:
    return [asdict(led) for led in ledgers]


def _run(provider, n_phi: int, mode: str) -> str:
    schedule = gse.GuidanceSchedule.from_guided_steps(n_phi, PARAMS)
    if mode == "offline":
        x, ledger, _ = gse.enhance_offline(_noisy(7), provider, schedule, SAMPLER, PARAMS,
                                           seed=11, frame_size=FRAME)
        return _digest(x, _ledgers([ledger]))
    if mode == "rows3":
        y = np.stack([_noisy(s) for s in (7, 8, 9)])
        x, ledgers, _ = gse.enhance_offline(y, provider, schedule, SAMPLER, PARAMS,
                                            seed=[11, 12, 13], frame_size=FRAME)
        return _digest(x, _ledgers(ledgers))
    enhancer = gse.StreamEnhancer(STREAM, provider, schedule, SAMPLER, PARAMS, seed=11)
    y, K, outs = _noisy(7), STREAM.chunk_size, []
    for start in range(0, y.size, K):
        enhancer.push(y[start : start + K])
        outs.append(enhancer.pull())
    return _digest(np.concatenate(outs), _ledgers(enhancer.chunk_ledgers + [enhancer.ledger]))


def _checkpoint_members(net) -> list:
    buf = io.BytesIO()
    gse.save_checkpoint(buf, net, train_seed=TRAIN.seed)
    with zipfile.ZipFile(buf) as z:
        return [part for name in sorted(z.namelist()) for part in (name.encode(), z.read(name))]


def _training(role: str) -> str:
    """Train a freshly initialised net of ``role`` briefly; digest its curve, weights and checkpoint."""
    pairs = make_dataset(gse.MixSpec(duration_s=0.05, seed=101), 6, FRAME)
    score, denoiser = _nets()
    if role == "score":
        net, result = score, gse.train_score(score, pairs, PARAMS, TRAIN)
    else:
        net, result = denoiser, gse.train_denoiser(denoiser, pairs, TRAIN)
    return _digest(result.curve, result.final_probe_loss,
                   *(net.params[k] for k in sorted(net.params)), *_checkpoint_members(net))


def cases():
    """(name, thunk returning the digest), in print order."""
    score, denoiser = _nets()
    for name, (provider, groups) in _providers(score, denoiser).items():
        for n_phi in groups:
            for mode in ("offline", "stream", "rows3"):
                yield (f"{name}/nphi{n_phi}/{mode}",
                       lambda p=provider, n=n_phi, m=mode: _run(p, n, m))
    for role in ("score", "denoiser"):
        yield f"train/{role}", lambda r=role: _training(r)


def compare(base: dict, change: dict) -> list[str]:
    """``name base change`` for each case whose digests differ, in first-seen order."""
    return [f"{name} {base.get(name, '-')} {change.get(name, '-')}"
            for name in dict.fromkeys([*base, *change]) if base.get(name) != change.get(name)]


def _digests(tree: Path) -> dict:
    """name -> digest, from this script run on the library in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, __file__], env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"dump_bits: the run on {tree} exited with {proc.returncode}")
    return dict(line.split() for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", metavar="REV", help="compare with git revision REV")
    args = p.parse_args(argv)
    if args.base is None:
        for name, digest in cases():
            print(f"{name} {digest()}", flush=True)
        return 0
    with tempfile.TemporaryDirectory(prefix="gse-bits-") as tmp:
        export(args.base, Path(tmp))
        base = _digests(Path(tmp))
    diffs = compare(base, _digests(ROOT))
    print("\n".join(diffs) if diffs else f"all {len(base)} digests equal")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
