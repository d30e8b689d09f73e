"""Regenerate gsebench/reference.npz and measure the tolerance the checks use.

Run from the root of a checkout:

    python3 gsebench/make_reference.py            # print the measured distances
    python3 gsebench/make_reference.py --write    # also rewrite reference.npz

It runs the reference requests on the benchmark's nets, then again under
changes that only reorder rounding (weights moved by 1e-15 relative; the
frame-parallel projections hoisted into batched matmuls, as the training path
of ``_FrameNet.forward`` does) and under small real changes of the math.  The
tolerance in reference.py must sit between the two families.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, bootstrap

bootstrap(processes=1)

import gse  # noqa: E402
import gse.nets  # noqa: E402
import numpy as np  # noqa: E402

import recipe  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def outputs(setup, workdir: Path) -> dict:
    """Every stored reference output, computed with the workloads' own request code."""
    stream = workloads.Stream(setup, workdir, seed=0)
    offline = workloads.Offline(setup, workdir, seed=0)
    sweep = workloads.Sweep(setup, workdir, seed=0)
    out = {}
    for g in recipe.GROUPS:
        out[f"stream.nphi{g}"] = np.concatenate(stream.stream(reference.stream_input(), g, seed=0)[0])
        out[f"offline.nphi{g}"] = offline.enhance(reference.offline_input(), g, seed=0)[0]
    code, rows = sweep.command(reference.REF_SEED, 1, **reference.SWEEP)
    if code != 0:
        raise SystemExit(f"reference sweep-nphi exited with {code}")
    cells = sorted((r for r in rows if r["seed"] != "median"), key=lambda r: int(r["n_phi"]))
    for col in ("sdr_db", "lsd"):
        out[f"sweep.{col}"] = np.array([float(r[col]) for r in cells])
    return out


@contextlib.contextmanager
def hoisted_projections():
    """Run inference through the batched (training) path of the frame net."""
    original = gse.nets._FrameNet.forward

    def forward(self, inp, state, need_cache):
        out, s, _ = original(self, inp, state, True)
        return out, s, None

    gse.nets._FrameNet.forward = forward
    try:
        yield
    finally:
        gse.nets._FrameNet.forward = original


def perturb_weights(setup, workdir: Path, rel: float, only_first: bool = False) -> None:
    """Move weights by ``rel`` relative: every element, or one element of one array.

    The changed nets are saved too, since sweep-nphi loads its own checkpoints.
    """
    rng = np.random.default_rng(0)
    for w in [w for net in (setup.score_net, setup.denoiser) for w in net.params.values()]:
        if only_first:
            w.flat[0] += rel * (abs(w.flat[0]) or 1.0)
            break
        w *= 1.0 + rel * rng.choice((-1.0, 1.0), size=w.shape)
    setup.score_path, setup.denoiser_path = workdir / "p-score.npz", workdir / "p-denoiser.npz"
    gse.save_checkpoint(setup.score_path, setup.score_net)
    gse.save_checkpoint(setup.denoiser_path, setup.denoiser)


def distances(got: dict, ref: dict) -> list[float]:
    return [float(np.linalg.norm(got[k] - ref[k]) / np.linalg.norm(ref[k])) for k in ref]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help="rewrite reference.npz")
    args = p.parse_args(argv)
    (ROOT / ".gsebench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".gsebench_work"))
    try:
        paths = recipe.write_checkpoints(workdir, gse.SdeParams())

        def fresh():
            return recipe.set_up(*paths, hybrid_everywhere=False)[0]

        def snr_changed(setup):
            setup.sampler = gse.SamplerConfig(corrector_steps=recipe.CORRECTORS,
                                              corrector_snr=recipe.CORRECTOR_SNR * (1 + 1e-9))

        base = outputs(fresh(), workdir)
        if args.write:
            np.savez(reference.PATH, **base)
            print(f"wrote {reference.PATH}")
        print(f"{'relative distance to':30s} " + " ".join(f"{k:>14s}" for k in base))
        rows = [("stored reference", base, reference.load())]
        variants = [
            ("weights x (1 +- 1e-15)", lambda s: perturb_weights(s, workdir, 1e-15),
             contextlib.nullcontext),
            ("hoisted projections", lambda s: None, hoisted_projections),
            ("one weight + 1e-9 rel", lambda s: perturb_weights(s, workdir, 1e-9, only_first=True),
             contextlib.nullcontext),
            ("corrector_snr x (1 + 1e-9)", snr_changed, contextlib.nullcontext),
        ]
        for label, change, context in variants:
            setup = fresh()
            change(setup)
            with context():
                rows.append((label, outputs(setup, workdir), base))
        for label, got, ref in rows:
            print(f"{label:30s} " + " ".join(f"{d:14.3e}" for d in distances(got, ref)))
        print(f"tolerances in use: outputs {reference.RTOL:.0e}, sweep.csv {reference.SWEEP_RTOL:.0e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
