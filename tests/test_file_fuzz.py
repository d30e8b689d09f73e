"""Malformed input files of every kind end a ``gse`` run only in exit 0, 2 or 3.

Each example takes a valid file (a WAV, a checkpoint, an SDE config, a data
config or a manifest), changes a few of its bytes or of its fields, and runs
the subcommand that reads it through ``gse.cli.main``.  A traceback fails the
test; a clean error (exit 2), a divergence (exit 3) or a run that still works
(exit 0) passes.
"""

import contextlib
import io
import json
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gse.audio import MixSpec, synthesize_pair, write_wav
from gse.cli import main
from gse.nets import DenoiserNet, ScoreNet, save_checkpoint
from gse.sde import SdeParams

# Values a field mutation may write.  Counts stay small, so no mutation makes a
# run allocate or loop much; the 401-digit integer overflows a float.
VALUES = ["-1", "0", "1", "2", "0.5", "1e-300", "1e300", "nan", "inf", "-inf", "", "x",
          "1" + "0" * 400]
# Values a WAV header field may take (the fields are 2 or 4 bytes wide).
HEADER_VALUES = [0, 1, 2, 3, 8, 15, 16, 24, 32, 44, 0xFFFF, 0xFFFFFFFF]
# (offset, struct format) of the RIFF, fmt and data header fields of a 44-byte PCM WAV
WAV_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"), (28, "<I"),
              (32, "<H"), (34, "<H"), (40, "<I")]
KINDS = ("wav", "checkpoint", "sde-config", "data-config", "manifest")

SDE_FLAGS = ["--paths", "4", "--steps", "4", "--grid-points", "2", "--seed", "1"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each kind, and the argv that reads it (``{}`` marks its place)."""
    d = tmp_path_factory.mktemp("file-fuzz")
    mix, sde, wav = d / "mix.cfg", d / "sde.cfg", d / "noisy.wav"
    MixSpec(duration_s=0.05, seed=3).to_file(mix)
    SdeParams().to_file(sde)
    write_wav(wav, synthesize_pair(MixSpec(duration_s=0.05, seed=4))[1])
    score, den = d / "s.npz", d / "d.npz"
    save_checkpoint(score, ScoreNet(SdeParams(), frame_size=8, hidden=4, seed=0))
    save_checkpoint(den, DenoiserNet(frame_size=8, hidden=4, seed=1))
    out = str(d / "out")
    enhance = ["enhance", "--out", out, "--n-phi", "12", "--streaming", "on",
               "--chunk-ms", "25", "--seed", "1"]
    readers = {
        "wav": [enhance + ["--input", "{}", "--score-ckpt", str(score),
                           "--denoiser-ckpt", str(den)]],
        "checkpoint": [enhance + ["--input", str(wav), "--score-ckpt", "{}",
                                  "--denoiser-ckpt", str(den)],
                       enhance + ["--input", str(wav), "--score-ckpt", str(score),
                                  "--denoiser-ckpt", "{}"]],
        "sde-config": [["simulate-forward", "--out", out, "--config", "{}"] + SDE_FLAGS,
                       enhance + ["--input", str(wav), "--score-ckpt", str(score),
                                  "--denoiser-ckpt", str(den), "--config", "{}"]],
        "data-config": [["train", "--out", out, "--role", "denoiser", "--data-config", "{}",
                         "--steps", "2", "--batch-size", "2", "--utterances", "2",
                         "--hidden", "4", "--frame-size", "8", "--probe-every", "1"],
                        ["sweep-nphi", "--out", out, "--data-config", "{}",
                         "--score-ckpt", str(score), "--denoiser-ckpt", str(den),
                         "--n-phi-list", "0,30", "--seeds", "0", "--utterances", "2"]],
        "manifest": [["replay", "--manifest", "{}"]],
    }
    manifests = []
    for argv in (["simulate-forward"] + SDE_FLAGS,
                 enhance[:1] + enhance[3:] + ["--input", str(wav), "--score-ckpt", str(score),
                                              "--denoiser-ckpt", str(den)]):
        run_dir = d / f"run-{argv[0]}"
        assert main(argv + ["--out", str(run_dir)]) == 0
        manifests.append((run_dir / "manifest.json").read_bytes())
    originals = {"wav": [wav.read_bytes()], "checkpoint": [score.read_bytes(), den.read_bytes()],
                 "sde-config": [sde.read_bytes()], "data-config": [mix.read_bytes()],
                 "manifest": manifests}
    (d / "cwd").mkdir()
    return d, readers, originals


def mutate_bytes(data: bytes, ops) -> bytes:
    data = bytearray(data)
    for op, i, v in ops:
        if not data:
            break
        i %= len(data)
        if op == "flip":
            data[i] ^= 1 << (v % 8)
        elif op == "set":
            data[i] = v % 256
        elif op == "truncate":
            del data[i:]
        else:  # insert
            data[i:i] = bytes([v % 256]) * (1 + v % 5)
    return bytes(data)


def mutate_key_values(text: str, ops) -> str:
    lines = text.splitlines()
    for op, i, v in ops:
        i %= max(len(lines), 1)
        if op == "value" and lines:
            lines[i] = f"{lines[i].partition('=')[0].strip()} = {VALUES[v % len(VALUES)]}"
        elif op == "drop" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(i, lines[i])
        elif op == "line":
            lines.insert(i, VALUES[v % len(VALUES)] or "=")
    return "\n".join(lines) + "\n"


def _json_value(v: int):
    raw = VALUES[v % len(VALUES)]
    return [raw, None, [], {}, -1, 2, 0.5, True][v % 8] if v % 3 else raw


def _mutate_tree(doc, path: list, v: int):
    """Replace, drop or grow the item that ``path`` (indices into each level) reaches."""
    node = doc
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = keys[step % len(keys)]
        child = node[key]
        if isinstance(child, (dict, list)) and child and step % 2:
            node = child
            continue
        if v % 4 == 0:
            del node[key]
        elif v % 4 == 1 and isinstance(node, list):
            node.insert(key, _json_value(v // 4))
        else:
            node[key] = _json_value(v // 4)
        return


def mutate_manifest(data: bytes, ops) -> bytes:
    doc = json.loads(data)
    for _, i, v in ops:
        _mutate_tree(doc, [i, i // 7, i // 49], v)
    return json.dumps(doc).encode()


def mutate_checkpoint(data: bytes, ops) -> bytes:
    """Edit the meta record's fields or the parameter arrays, and save the result."""
    with np.load(io.BytesIO(data)) as npz:
        arrays = {k: npz[k] for k in npz.files}
    meta = json.loads(bytes(arrays["meta"]))
    params = sorted(k for k in arrays if k != "meta")
    for op, i, v in ops:
        if op == "line" or not params:  # a meta field
            _mutate_tree(meta, [i, i // 7], v)
            continue
        key = params[i % len(params)]
        if op == "drop":
            del arrays[key]
            params.remove(key)
        elif op == "duplicate":  # a wrong shape
            arrays[key] = np.concatenate([arrays[key], arrays[key]])
        else:  # one weight
            arrays[key] = arrays[key].copy()
            arrays[key].flat[v % arrays[key].size] = [np.nan, np.inf, 1e300, 0.0][v % 4]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


def mutate_wav_header(data: bytes, ops) -> bytes:
    data = bytearray(data)
    for _, i, v in ops:
        offset, fmt = WAV_FIELDS[i % len(WAV_FIELDS)]
        value = HEADER_VALUES[v % len(HEADER_VALUES)] % (1 << (8 * struct.calcsize(fmt)))
        data[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
    return bytes(data)


FIELD_MUTATORS = {"wav": mutate_wav_header, "checkpoint": mutate_checkpoint,
                  "sde-config": lambda b, ops: mutate_key_values(b.decode(), ops).encode(),
                  "data-config": lambda b, ops: mutate_key_values(b.decode(), ops).encode(),
                  "manifest": mutate_manifest}

positions = st.one_of(st.integers(0, 63), st.integers(0, 10**6))
byte_ops = st.lists(st.tuples(st.sampled_from(["flip", "set", "truncate", "insert"]), positions,
                              st.integers(0, 255)), min_size=1, max_size=3)
field_ops = st.lists(st.tuples(st.sampled_from(["value", "drop", "duplicate", "line"]),
                               st.integers(0, 10**4), st.integers(0, 10**4)),
                     min_size=1, max_size=3)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=timedelta(seconds=30),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_exits_only_0_2_or_3(files, kind, data):
    d, readers, originals = files
    original = originals[kind][data.draw(st.integers(0, len(originals[kind]) - 1),
                                         label="original")]
    if data.draw(st.booleans(), label="field mutation"):
        mutated = FIELD_MUTATORS[kind](original, data.draw(field_ops, label="field ops"))
    else:
        mutated = mutate_bytes(original, data.draw(byte_ops, label="byte ops"))
    path = d / f"mutated-{kind}"
    path.write_bytes(mutated)
    argv = [str(path) if a == "{}" else a for a in data.draw(st.sampled_from(readers[kind]))]
    with pytest.MonkeyPatch.context() as mp, contextlib.chdir(d / "cwd"):
        mp.setenv("GSE_THREADS", "1")  # sweep cells stay in this process
        assert main(argv) in (0, 2, 3), argv
