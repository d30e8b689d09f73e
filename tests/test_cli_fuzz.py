"""Mutated command lines of all five subcommands end only in exit 0, 2 or 3."""

import contextlib
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gse.audio import MixSpec, synthesize_pair, write_wav
from gse.cli import main
from gse.nets import DenoiserNet, ScoreNet, save_checkpoint
from gse.sde import SdeParams

# Values a mutation may put in place of any flag's value.  Every count flag's
# base value is small, so no replacement makes a run allocate or loop much.
VALUES = ["-1", "0", "1", "2", "nan", "inf", "-inf", "1e300", "1e308", ""]
OPS = ("drop", "duplicate", "swap", "replace")


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    """Cheap valid argv per subcommand, and the pool of replacement values."""
    d = tmp_path_factory.mktemp("fuzz")
    mix = d / "mix.cfg"
    MixSpec(duration_s=0.05, seed=3).to_file(mix)
    wav = d / "noisy.wav"
    write_wav(wav, synthesize_pair(MixSpec(duration_s=0.05, seed=4))[1])
    score, den = d / "s.npz", d / "d.npz"
    save_checkpoint(score, ScoreNet(SdeParams(), frame_size=8, hidden=4, seed=0))
    save_checkpoint(den, DenoiserNet(frame_size=8, hidden=4, seed=1))
    replayed = d / "replayed"
    sim = ["simulate-forward", "--paths", "4", "--steps", "4", "--grid-points", "2",
           "--seed", "1"]
    assert main(sim + ["--out", str(replayed)]) == 0
    out = str(d / "out")
    (d / "cwd").mkdir()
    (d / "a-directory").mkdir()
    base = {
        "simulate-forward": sim + ["--out", out],
        "train": ["train", "--out", out, "--role", "denoiser", "--data-config", str(mix),
                  "--steps", "2", "--batch-size", "2", "--utterances", "2", "--hidden", "4",
                  "--frame-size", "8", "--probe-every", "1", "--learning-rate", "0.001",
                  "--seed", "1"],
        "enhance": ["enhance", "--out", out, "--input", str(wav), "--score-ckpt", str(score),
                    "--denoiser-ckpt", str(den), "--n-phi", "12", "--streaming", "on",
                    "--chunk-ms", "25", "--corrector-steps", "1", "--corrector-snr", "0.5",
                    "--seed", "1"],
        "sweep-nphi": ["sweep-nphi", "--out", out, "--data-config", str(mix),
                       "--score-ckpt", str(score), "--denoiser-ckpt", str(den),
                       "--n-phi-list", "0,30", "--seeds", "0", "--utterances", "2",
                       "--corrector-snr", "0.5"],
        "replay": ["replay", "--manifest", str(replayed / "manifest.json")],
    }
    pool = VALUES + [str(d / "a-directory"), str(d / "missing" / "path")]
    return base, pool, d / "cwd"


def mutate(argv: list, ops, pool: list) -> list:
    argv = list(argv)
    for op, i, j, k in ops:
        if not argv:
            break
        i, j = i % len(argv), j % len(argv)
        if op == "drop":
            del argv[i]
        elif op == "duplicate":
            argv.insert(i, argv[i])
        elif op == "swap":
            argv[i], argv[j] = argv[j], argv[i]
        else:
            values = [n for n in range(1, len(argv)) if not argv[n].startswith("--")]
            if values:
                argv[values[i % len(values)]] = pool[k % len(pool)]
    return argv


mutations = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=timedelta(seconds=30))
@given(command=st.sampled_from(["simulate-forward", "train", "enhance", "sweep-nphi", "replay"]),
       ops=mutations)
def test_mutated_argv_exits_only_0_2_or_3(argvs, command, ops):
    base, pool, cwd = argvs
    argv = mutate(base[command], ops, pool)
    with pytest.MonkeyPatch.context() as mp, contextlib.chdir(cwd):
        mp.setenv("GSE_THREADS", "1")  # sweep cells stay in this process
        # an empty --out is the working directory: keep it out of the checkout
        assert main(argv) in (0, 2, 3), argv
