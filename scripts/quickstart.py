#!/usr/bin/env python3
"""Minute-scale demo: train small models, enhance one utterance, print a table.

Trains a reduced score network and denoiser on synthetic sinusoid+noise
mixtures, then enhances a held-out utterance in pure-generative (n_phi=0),
hybrid (n_phi=12), and pure-discriminative (n_phi=30) modes, offline and
streaming.  At this scale the guided modes gain several dB while the unguided
generative route roughly breaks even; scripts/run_trend_sweep.py trains the
full recipe (hidden 160, 6000 steps) where all three modes clear +5 dB.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from gse.audio import MixSpec, sdr_db, synthesize_pair
from gse.cli import make_dataset
from gse.nets import DenoiserNet, ScoreNet, TrainConfig, save_checkpoint, train_denoiser, train_score
from gse.sampler import SamplerConfig
from gse.score import DiscriminativeScore, GuidanceSchedule, HybridScore, LearnedScore
from gse.sde import SdeParams
from gse.streaming import StreamConfig, enhance_offline, enhance_stream, realtime_factor

FRAME = 40


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/quickstart", help="checkpoint directory")
    ap.add_argument("--score-steps", type=int, default=3000)
    ap.add_argument("--denoiser-steps", type=int, default=800)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--utterances", type=int, default=24, help="training set size")
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = SdeParams()
    spec = MixSpec(duration_s=0.25, snr_db=5.0, seed=101)
    pairs = make_dataset(spec, args.utterances, FRAME)

    t0 = time.time()
    score_net = ScoreNet(params, frame_size=FRAME, hidden=args.hidden, seed=args.seed)
    train_score(score_net, pairs, params,
                TrainConfig(steps=args.score_steps, batch_size=8, learning_rate=1e-3,
                            seed=args.seed, probe_every=250))
    denoiser = DenoiserNet(frame_size=FRAME, hidden=args.hidden, seed=args.seed + 1)
    train_denoiser(denoiser, pairs,
                   TrainConfig(steps=args.denoiser_steps, batch_size=8,
                               learning_rate=1e-3, seed=args.seed + 1, probe_every=250))
    save_checkpoint(out / "score.npz", score_net, train_seed=args.seed)
    save_checkpoint(out / "denoiser.npz", denoiser, train_seed=args.seed + 1)
    print(f"trained both models in {time.time() - t0:.1f}s; checkpoints in {out}/")

    clean, noisy = synthesize_pair(MixSpec(duration_s=0.25, snr_db=5.0, seed=9000))
    input_sdr = sdr_db(clean.samples, noisy.samples)
    providers = {  # n_phi -> (mode label, provider)
        0: ("learned", LearnedScore(score_net, params)),
        12: ("hybrid", HybridScore(score_net, denoiser, params)),
        30: ("discriminative", DiscriminativeScore(denoiser, params)),
    }
    print(f"\ninput SDR {input_sdr:+.2f} dB")
    print(f"{'n_phi':>6} {'mode':<16} {'SDR out':>8} {'gain':>7} {'RTF':>6} {'MMACs':>8}")
    for n_phi, (mode, provider) in providers.items():
        schedule = GuidanceSchedule.from_guided_steps(n_phi, params)
        x, ledger, rep = enhance_offline(
            noisy.samples, provider, schedule, SamplerConfig(), params,
            seed=7, frame_size=FRAME, sample_rate=noisy.sample_rate,
        )
        sdr = sdr_db(clean.samples, x)
        print(f"{n_phi:>6} {mode:<16} {sdr:>+8.2f} {sdr - input_sdr:>+7.2f} "
              f"{realtime_factor(rep):>6.3f} {ledger.mac_total / 1e6:>8.1f}")

    schedule = GuidanceSchedule.from_guided_steps(12, params)
    stream_cfg = StreamConfig(chunk_ms=50.0, sample_rate=noisy.sample_rate)
    x, _, rep = enhance_stream(
        noisy.samples, stream_cfg, providers[12][1], schedule, SamplerConfig(),
        params, seed=7,
    )
    print(f"\nstreaming (50 ms chunks): SDR {sdr_db(clean.samples, x):+.2f} dB, "
          f"RTF {realtime_factor(rep):.3f}, "
          f"algorithmic latency {rep.algorithmic_latency_ms:.0f} ms")


if __name__ == "__main__":
    main()
