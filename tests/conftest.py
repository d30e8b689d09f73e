"""Shared fixtures.

The expensive piece is the pair of trained models used by the end-to-end and
acceptance tests (about three minutes of CPU).  They are trained once per
session and cached under pytest's cache directory keyed by their recipe, so
repeat runs skip straight to the assertions.  Delete .pytest_cache to retrain.
Without pytest's cache plugin (``-p no:cacheprovider``) they are kept in a
temporary directory for the session only.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from gse.audio import MixSpec, synthesize_pair
from gse.cli import make_dataset
from gse.nets import (
    DenoiserNet,
    ScoreNet,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_denoiser,
    train_score,
)
from gse.sde import SdeParams

TRAIN_SPEC = MixSpec(
    clean_kind="sinusoid-sum", noise_kind="white", snr_db=5.0,
    duration_s=0.25, seed=101, sample_rate=16000,
)
EVAL_SEED_BASE = 9000  # disjoint from the training seeds 101..196
FRAME = 40
MODEL_RECIPE = {
    "frame": FRAME,
    "score": {"hidden": 160, "steps": 6000, "seed": 0},
    "denoiser": {"hidden": 96, "steps": 2500, "seed": 1},
    "utterances": 96,
}


@pytest.fixture(scope="session")
def default_params() -> SdeParams:
    return SdeParams()


@pytest.fixture(scope="session")
def wide_noise_params() -> SdeParams:
    """Same process with a fatter noise band; well conditioned near t_eps."""
    return SdeParams(sigma_min=0.05, sigma_max=0.5)


@pytest.fixture(scope="session")
def train_pairs():
    return make_dataset(TRAIN_SPEC, MODEL_RECIPE["utterances"], FRAME)


@pytest.fixture(scope="session")
def eval_set():
    """20 held-out (clean, noisy) utterances from the training distribution."""
    return [synthesize_pair(replace(TRAIN_SPEC, seed=EVAL_SEED_BASE + i)) for i in range(20)]


class TrainedModels:
    def __init__(self, score_net, denoiser, train_seconds, from_cache):
        self.score_net = score_net
        self.denoiser = denoiser
        self.train_seconds = train_seconds
        self.from_cache = from_cache


@pytest.fixture(scope="session")
def model_dir(request, tmp_path_factory):
    """pytest's cache directory for the trained models, or a temporary one without it."""
    cache = getattr(request.config, "cache", None)
    return (tmp_path_factory.mktemp("gse-models") if cache is None
            else cache.mkdir("gse-models"))


@pytest.fixture(scope="session")
def trained_models(model_dir, default_params, train_pairs) -> TrainedModels:
    tag = json.dumps(MODEL_RECIPE, sort_keys=True).encode()
    import hashlib

    key = hashlib.sha256(tag).hexdigest()[:16]
    score_path = model_dir / f"score-{key}.npz"
    den_path = model_dir / f"denoiser-{key}.npz"
    meta_path = model_dir / f"meta-{key}.json"
    if score_path.exists() and den_path.exists() and meta_path.exists():
        score_net, _ = load_checkpoint(score_path)
        denoiser, _ = load_checkpoint(den_path)
        seconds = json.loads(meta_path.read_text())["train_seconds"]
        return TrainedModels(score_net, denoiser, seconds, from_cache=True)

    t0 = time.time()
    r = MODEL_RECIPE["score"]
    score_net = ScoreNet(default_params, frame_size=FRAME, hidden=r["hidden"], seed=r["seed"])
    train_score(
        score_net, train_pairs, default_params,
        TrainConfig(steps=r["steps"], batch_size=8, learning_rate=1e-3,
                    seed=r["seed"], probe_every=500),
    )
    r = MODEL_RECIPE["denoiser"]
    denoiser = DenoiserNet(frame_size=FRAME, hidden=r["hidden"], seed=r["seed"])
    train_denoiser(
        denoiser, train_pairs,
        TrainConfig(steps=r["steps"], batch_size=8, learning_rate=1e-3,
                    seed=r["seed"], probe_every=500),
    )
    seconds = time.time() - t0
    save_checkpoint(score_path, score_net, train_seed=MODEL_RECIPE["score"]["seed"])
    save_checkpoint(den_path, denoiser, train_seed=MODEL_RECIPE["denoiser"]["seed"])
    meta_path.write_text(json.dumps({"train_seconds": seconds}))
    return TrainedModels(score_net, denoiser, seconds, from_cache=False)


@pytest.fixture(scope="session")
def trained_ckpt_paths(model_dir, trained_models):
    """The trained models persisted as checkpoint files, for CLI-level tests."""
    score_path = model_dir / "cli-score.npz"
    den_path = model_dir / "cli-denoiser.npz"
    save_checkpoint(score_path, trained_models.score_net, train_seed=0)
    save_checkpoint(den_path, trained_models.denoiser, train_seed=1)
    return str(score_path), str(den_path)


def input_scale(noisy: np.ndarray) -> float:
    return 0.9 / float(np.max(np.abs(noisy)))
