"""Reference requests whose outputs are stored with the benchmark, and their tolerance.

``make_reference.py`` regenerates ``reference.npz`` and measures how far
rounding-order changes and real changes of the math move these outputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import recipe

PATH = Path(__file__).resolve().parent / "reference.npz"
REF_SEED = 7  # fixed: the reference does not follow --seed
STREAM_S = 0.15  # three 50 ms chunks
OFFLINE_S = 0.1
SWEEP = {"seeds": (0,), "utterances": 1}

# Relative L2 distance allowed between an output and its stored reference.
# make_reference.py measured, on a 2-CPU x86-64 box with OpenBLAS 0.3.31:
#   rounding-order changes: weights x (1 +- 1e-15) moved outputs by <= 1.6e-15,
#   hoisting the frame projections into batched matmuls by <= 7.3e-16;
#   changed math: one weight moved by 1e-9 relative gave 1.3e-12 at n_phi = 0,
#   corrector_snr x (1 + 1e-9) gave 1.4e-9 at n_phi = 0 and 8.5e-10 at n_phi = 12.
# 1e-12 leaves 600x room for rounding and catches any change of the formulas.
RTOL = 1e-12
# sweep.csv prints 6 decimals: one flipped last digit in each of the three
# cells moves the sdr_db column (norm 20.4) by 8.5e-8 relative at most.
SWEEP_RTOL = 2e-7


def stream_input() -> np.ndarray:
    return recipe.utterance(REF_SEED, STREAM_S)


def offline_input() -> np.ndarray:
    return recipe.utterance(REF_SEED, OFFLINE_S)


def load() -> dict:
    with np.load(PATH) as data:
        return {k: data[k] for k in data.files}
