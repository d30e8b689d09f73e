"""Command-line front end: `gse <subcommand>`.

Subcommands
-----------
simulate-forward   Monte-Carlo check of the forward process against closed forms.
train              Fit a score model or a denoiser on synthetic pairs.
enhance            Enhance one WAV file (offline or chunked streaming).
sweep-nphi         Quality/cost table over the number of guided steps.
replay             Re-run a previous command from its manifest.

Every run writes a `manifest.json` next to its outputs; re-running the argv
stored there reproduces the deterministic outputs bit-exactly on one platform
(timing fields in reports and the sweep `rtf` column are measured, not
deterministic).  The manifest records that platform (Python, numpy, BLAS and
the OpenBLAS kernel picked at run time), and `replay` warns when it runs on
another.  A sweep cell runs its utterances as one batch (see `gse.sampler`
for the row contract); its `rtf` is the batch's wall time over the audio of
all its utterances (for one utterance, its solo wall time over its audio).
Exit codes: 0 success, 2 bad configuration or input format, 3 numerical
divergence.  The environment variable GSE_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .audio import MixSpec, Signal, lsd, read_wav, sdr_db, synthesize_pair, write_wav
from .errors import ConfigError, DivergenceError, GseError
from .nets import (
    DenoiserNet,
    ScoreNet,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_denoiser,
    train_score,
)
from .sampler import SamplerConfig
from .score import GuidanceSchedule, HybridScore, ScoreProvider
from .sde import SdeParams, forward_ensemble_moments, make_rng
from .streaming import (
    StreamConfig,
    _normalizer,
    _pad_to_multiple,
    enhance_offline,
    enhance_stream,
    realtime_factor,
)

__all__ = ["main", "console_entry", "build_parser", "replay_manifest", "sweep_threads"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------


def _load_config(cls, path: str | None):
    """``cls`` read from a ``key = value`` file, or its defaults without one."""
    return cls.from_file(path) if path else cls()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _blas_core() -> str | None:
    """The kernel family (``SkylakeX``, ``Haswell``, ...) that the OpenBLAS bundled with
    numpy picked at run time, or None without one; output bits depend on it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib_path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype, corename.argtypes = ctypes.c_char_p, []
            return corename().decode()
    return None


def _platform() -> dict:
    """The Python, numpy and BLAS a run used: bit-exact replay holds on one platform."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_core": _blas_core()}


def _write_manifest(out: Path, args, config_echo: dict, inputs, outputs) -> Path:
    manifest = {
        "version": f"gse-{__version__}",
        "platform": _platform(),
        "command": args.command,
        "argv": list(args._argv),
        "config": config_echo,
        "seed": getattr(args, "seed", None),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def sweep_threads() -> int:
    """Worker cap for sweep fan-out, from GSE_THREADS (default: CPU count)."""
    raw = os.environ.get("GSE_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"GSE_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"GSE_THREADS must be >= 1, got {n}")
    return n


def make_dataset(
    spec: MixSpec, n_utterances: int, frame_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Synthetic (clean, noisy) pairs, peak-normalized as the inference path normalizes."""
    pairs = []
    for i in range(n_utterances):
        clean, noisy = synthesize_pair(replace(spec, seed=spec.seed + i))
        scale = _normalizer(float(np.max(np.abs(noisy.samples))))
        pairs.append(
            (
                _pad_to_multiple(clean.samples * scale, frame_size),
                _pad_to_multiple(noisy.samples * scale, frame_size),
            )
        )
    return pairs


def _resolve_schedule(args, params: SdeParams) -> GuidanceSchedule:
    if args.t_phi is not None:
        return GuidanceSchedule.from_switch_time(args.t_phi, params)
    n_phi = args.n_phi if args.n_phi is not None else 0
    return GuidanceSchedule.from_guided_steps(n_phi, params)


# The SdeParams fields a score net reads (ScoreNet.gain / SdeParams.clamp); N is only
# the sampler's grid, so a checkpoint may be run at any N.
_SCORE_NET_SDE_FIELDS = ("gamma", "sigma_min", "sigma_max", "T", "t_eps")


def _load_net(path: str, cls, params: SdeParams):
    """Load a checkpoint of ``cls``; a score net must be trained for the same process."""
    net, _ = load_checkpoint(path)
    if not isinstance(net, cls):
        raise ConfigError(f"{path}: not a {cls.kind} checkpoint")
    if cls is not ScoreNet:
        return net
    stored = net.sde_params
    bad = [f for f in _SCORE_NET_SDE_FIELDS if getattr(stored, f) != getattr(params, f)]
    if bad:
        raise ConfigError(
            f"{path}: checkpoint sde_params differ from the config in "
            + ", ".join(f"{f} ({getattr(stored, f)!r} vs {getattr(params, f)!r})" for f in bad)
        )
    return net


def _load_nets(args, params: SdeParams, schedule: GuidanceSchedule):
    """Load whichever checkpoints the schedule actually needs."""
    score_net = denoiser = None
    if schedule.n_guided < schedule.n_steps:
        if not args.score_ckpt:
            raise ConfigError("--score-ckpt is required unless every step is guided")
        score_net = _load_net(args.score_ckpt, ScoreNet, params)
    if schedule.n_guided > 0:
        if not args.denoiser_ckpt:
            raise ConfigError("--denoiser-ckpt is required when guided steps > 0")
        denoiser = _load_net(args.denoiser_ckpt, DenoiserNet, params)
    return score_net, denoiser


# --------------------------------------------------------------------------
# simulate-forward
# --------------------------------------------------------------------------

FORWARD_CSV_HEADER = ["t", "mean_rel_err", "empirical_var", "model_var"]


def cmd_simulate_forward(args) -> int:
    params = _load_config(SdeParams, args.config)
    out = _out_dir(args)
    if args.paths < 2 or args.grid_points < 1:
        raise ConfigError("need --paths >= 2 and --grid-points >= 1")
    if args.steps % args.grid_points:
        raise ConfigError(
            f"--steps ({args.steps}) must be a multiple of --grid-points ({args.grid_points})"
        )
    grid = params.T * np.arange(1, args.grid_points + 1) / args.grid_points
    x0 = np.array([1.0])
    y = np.array([0.1])
    rows = forward_ensemble_moments(
        x0, y, params, args.paths, args.steps, grid, make_rng(args.seed)
    )
    csv_path = out / "forward_stats.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FORWARD_CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{row[k]:.12g}" for k in FORWARD_CSV_HEADER})
    _write_manifest(
        out,
        args,
        {
            "sde": asdict(params),
            "paths": args.paths,
            "steps": args.steps,
            "grid_points": args.grid_points,
        },
        inputs=[args.config] if args.config else [],
        outputs=[csv_path],
    )
    # relative, or absolute where the model variance is 0 (sigma_min == sigma_max: no noise)
    worst = max(abs(r["empirical_var"] - r["model_var"]) / (r["model_var"] or 1.0) for r in rows)
    summary = (f"relative variance error {worst:.3%}" if all(r["model_var"] for r in rows)
               else f"variance error {worst:.3g}, absolute where the model variance is 0")
    print(f"wrote {csv_path} ({len(rows)} rows, worst {summary})")
    return EXIT_OK


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


# CLI spelling -> TrainConfig.optimizer
_OPTIMIZERS = {"adam": "adam", "sgd-momentum": "momentum"}


def cmd_train(args) -> int:
    params = _load_config(SdeParams, args.config)
    spec = _load_config(MixSpec, args.data_config)
    out = _out_dir(args)
    cfg = TrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        optimizer=_OPTIMIZERS[args.optimizer],
        probe_every=args.probe_every,
    )
    shape = {"frame_size": args.frame_size, "hidden": args.hidden, "seed": args.seed}
    # built before the dataset, so the net's own checks reject a bad --frame-size
    net = ScoreNet(params, **shape) if args.role == "score" else DenoiserNet(**shape)
    pairs = make_dataset(spec, args.utterances, args.frame_size)
    if args.role == "score":
        result = train_score(net, pairs, params, cfg)
    else:
        result = train_denoiser(net, pairs, cfg)
    ckpt_path = out / f"{args.role}.npz"
    curve_path = out / "loss_curve.csv"
    save_checkpoint(ckpt_path, net, train_seed=args.seed)
    result.save_curve_csv(curve_path)
    _write_manifest(
        out,
        args,
        {
            "sde": asdict(params),
            "mix": asdict(spec),
            "train": {
                "role": args.role, "steps": cfg.steps, "batch_size": cfg.batch_size,
                "learning_rate": cfg.learning_rate, "optimizer": cfg.optimizer,
                "utterances": args.utterances, "hidden": args.hidden,
                "frame_size": args.frame_size,
            },
        },
        inputs=[p for p in (args.config, args.data_config) if p],
        outputs=[ckpt_path, curve_path],
    )
    print(
        f"trained {args.role} for {cfg.steps} steps; final probe loss "
        f"{result.final_probe_loss:.6g}; wrote {ckpt_path}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# enhance
# --------------------------------------------------------------------------


def cmd_enhance(args) -> int:
    params = _load_config(SdeParams, args.config)
    out = _out_dir(args)
    schedule = _resolve_schedule(args, params)
    score_net, denoiser = _load_nets(args, params, schedule)
    provider = ScoreProvider(score_net, denoiser, params)
    frame_size = (score_net or denoiser).frame_size
    sig = read_wav(args.input)
    sampler_cfg = SamplerConfig(
        corrector_steps=args.corrector_steps, corrector_snr=args.corrector_snr
    )
    streaming = args.streaming == "on"
    if streaming:
        stream_cfg = StreamConfig(chunk_ms=args.chunk_ms, sample_rate=sig.sample_rate)
        if stream_cfg.chunk_size > sig.samples.size:
            raise ConfigError(f"chunk of {stream_cfg.chunk_size} samples is longer than the "
                              f"input's {sig.samples.size}; use --streaming off")
        if stream_cfg.chunk_size % frame_size:
            raise ConfigError(
                f"chunk size {stream_cfg.chunk_size} is not a multiple of the "
                f"model frame size {frame_size}"
            )
        x, ledger, report = enhance_stream(
            sig.samples, stream_cfg, provider, schedule, sampler_cfg, params, args.seed
        )
        chunk_size = stream_cfg.chunk_size
    else:
        x, ledger, report = enhance_offline(
            sig.samples, provider, schedule, sampler_cfg, params, args.seed,
            frame_size=frame_size, sample_rate=sig.sample_rate,
        )
        chunk_size = None
    wav_path = out / "enhanced.wav"
    write_wav(wav_path, Signal(np.clip(x, -1.0, 1.0), sig.sample_rate))
    report_path = out / "report.json"
    t_phi = params.grid_time(params.N - schedule.n_guided)  # the switch time the run used
    report_doc = {
        "ledger": asdict(ledger),
        "latency": report.as_dict(),
        "rtf": realtime_factor(report),
        "streaming": streaming,
        "chunk_size": chunk_size,
        "n_phi": schedule.n_guided,
        "t_phi": t_phi,
        "output": str(wav_path),
    }
    report_path.write_text(json.dumps(report_doc, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        out,
        args,
        {
            "sde": asdict(params),
            "schedule": {"n_phi": schedule.n_guided, "t_phi": t_phi},
            "sampler": {
                "n_steps": schedule.n_steps,
                "corrector_steps": args.corrector_steps,
                "corrector_snr": args.corrector_snr,
            },
            "streaming": {
                "enabled": streaming,
                "chunk_ms": args.chunk_ms if streaming else None,
                "chunk_size": chunk_size,
            },
        },
        inputs=[p for p in (args.input, args.config, args.score_ckpt, args.denoiser_ckpt) if p],
        outputs=[wav_path],
    )
    print(
        f"enhanced {args.input} -> {wav_path} "
        f"(n_phi={schedule.n_guided}, score_net_forwards={ledger.score_net_forwards}, "
        f"denoiser_forwards={ledger.denoiser_forwards}, rtf={report_doc['rtf']:.3f})"
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep-nphi
# --------------------------------------------------------------------------

SWEEP_CSV_HEADER = ["n_phi", "seed", "sdr_db", "lsd", "score_net_forwards", "mac_total", "rtf"]


def _sweep_worker(task: dict) -> dict:
    """One (n_phi, seed) cell: run the shared test set as one batch, report medians.

    Always uses the hybrid provider so the MAC column stays exactly affine in
    n_phi (the denoiser runs once per utterance even when no step is guided).
    """
    params = SdeParams(**task["sde"])
    spec = MixSpec(**task["mix"])
    score_net = _load_net(task["score_ckpt"], ScoreNet, params)
    denoiser = _load_net(task["denoiser_ckpt"], DenoiserNet, params)
    provider = HybridScore(score_net, denoiser, params)
    schedule = GuidanceSchedule.from_guided_steps(task["n_phi"], params)
    cfg = SamplerConfig(
        corrector_steps=task["corrector_steps"], corrector_snr=task["corrector_snr"]
    )
    utts = range(task["utterances"])
    pairs = [synthesize_pair(replace(spec, seed=spec.seed + i)) for i in utts]
    try:
        x, ledgers, report = enhance_offline(
            np.stack([noisy.samples for _, noisy in pairs]), provider, schedule, cfg, params,
            seed=[task["seed"] * 100_003 + i for i in utts],
            frame_size=score_net.frame_size, sample_rate=spec.sample_rate,
        )
    except DivergenceError as exc:
        cell = f"cell (n_phi={task['n_phi']}, seed={task['seed']})"
        raise DivergenceError(f"{cell}: {exc}") from exc
    return {
        "n_phi": task["n_phi"],
        "seed": task["seed"],
        "sdr_db": statistics.median(sdr_db(c.samples, x_i) for (c, _), x_i in zip(pairs, x)),
        "lsd": statistics.median(lsd(c.samples, x_i) for (c, _), x_i in zip(pairs, x)),
        "score_net_forwards": ledgers[0].score_net_forwards,
        "mac_total": ledgers[0].mac_total,
        "rtf": realtime_factor(report),
    }


def _format_sweep_row(row: dict) -> dict:
    return {
        "n_phi": row["n_phi"],
        "seed": row["seed"],
        "sdr_db": f"{row['sdr_db']:.6f}",
        "lsd": f"{row['lsd']:.6f}",
        "score_net_forwards": row["score_net_forwards"],
        "mac_total": row["mac_total"],
        "rtf": f"{row['rtf']:.6f}",
    }


def cmd_sweep_nphi(args) -> int:
    params = _load_config(SdeParams, args.config)
    spec = _load_config(MixSpec, args.data_config)
    out = _out_dir(args)
    n_phis = _parse_int_list(args.n_phi_list, "--n-phi-list")
    seeds = _parse_int_list(args.seeds, "--seeds")
    if not args.score_ckpt or not args.denoiser_ckpt:
        raise ConfigError("sweep-nphi needs both --score-ckpt and --denoiser-ckpt")
    if args.utterances < 1:
        raise ConfigError(f"--utterances must be >= 1, got {args.utterances}")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must be >= 0, got {min(seeds)}")
    bad = [n for n in n_phis if not 0 <= n <= params.N]
    if bad:
        raise ConfigError(f"--n-phi-list entries must lie in [0, N={params.N}]: {bad}")
    tasks = [
        {
            "n_phi": n_phi,
            "seed": seed,
            "sde": asdict(params),
            "mix": asdict(spec),
            "score_ckpt": args.score_ckpt,
            "denoiser_ckpt": args.denoiser_ckpt,
            "utterances": args.utterances,
            "corrector_steps": args.corrector_steps,
            "corrector_snr": args.corrector_snr,
        }
        for n_phi in n_phis
        for seed in seeds
    ]
    workers = min(sweep_threads(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]
    by_key = {(r["n_phi"], r["seed"]): r for r in results}
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_HEADER)
        writer.writeheader()
        for key in sorted(by_key):
            writer.writerow(_format_sweep_row(by_key[key]))
        for n_phi in sorted(set(n_phis)):
            rows = [by_key[(n_phi, s)] for s in seeds]  # the seeds agree on the cost columns
            medians = {k: statistics.median(r[k] for r in rows) for k in ("sdr_db", "lsd", "rtf")}
            writer.writerow(_format_sweep_row({**rows[0], "seed": "median", **medians}))
    _write_manifest(
        out,
        args,
        {
            "sde": asdict(params),
            "n_phi_list": n_phis,
            "seeds": seeds,
            "utterances": args.utterances,
            "workers": workers,
        },
        inputs=[p for p in (args.config, args.data_config, args.score_ckpt, args.denoiser_ckpt) if p],
        outputs=[csv_path],
    )
    print(f"wrote {csv_path} ({len(tasks)} cells + {len(set(n_phis))} median rows, {workers} workers)")
    return EXIT_OK


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma-separated integer list, got {raw!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    dups = sorted({v for v in values if values.count(v) > 1})
    if dups:
        raise ConfigError(f"{flag} repeats {dups}")
    return values


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------


def replay_manifest(path: str | Path) -> int:
    """Re-run the argv recorded in a manifest; deterministic outputs match bit-exactly."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: unreadable manifest ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: manifest is not a JSON object")
    argv = doc.get("argv")
    if not isinstance(argv, list) or not argv:
        raise ConfigError(f"{path}: manifest has no argv record")
    if argv[0] == "replay":  # replay writes no manifest; this one would recurse
        raise ConfigError(f"{path}: manifest records a replay command")
    recorded, here = doc.get("platform"), _platform()
    # a field the manifest lacks (written before it was recorded) is unknown, not different
    if not isinstance(recorded, dict) or any(here.get(k) != v for k, v in recorded.items()):
        print(f"gse: warning: {path} was written on {recorded}, this is {here}; "
              "outputs may differ in the last bits", file=sys.stderr)
    return main([str(a) for a in argv])


def cmd_replay(args) -> int:
    return replay_manifest(args.manifest)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="SDE parameter file (flat key = value)")
    p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gse", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-forward", help="Monte-Carlo check of the forward process")
    _add_common(p)
    p.add_argument("--paths", type=int, default=10_000, help="Monte-Carlo paths (default 10000)")
    p.add_argument("--steps", type=int, default=2_000, help="integration steps (default 2000)")
    p.add_argument("--grid-points", type=int, default=10, help="snapshot count (default 10)")
    p.set_defaults(func=cmd_simulate_forward)

    p = sub.add_parser("train", help="train the score model or the denoiser")
    _add_common(p)
    p.add_argument("--role", required=True, choices=["score", "denoiser"])
    p.add_argument("--data-config", help="mixture recipe file (flat key = value)")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=list(_OPTIMIZERS), default="adam")
    p.add_argument("--probe-every", type=int, default=25)
    p.add_argument("--utterances", type=int, default=48, help="training set size")
    p.add_argument("--hidden", type=int, default=96, help="recurrent width")
    p.add_argument("--frame-size", type=int, default=80, help="samples per model frame")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance one WAV file")
    _add_common(p)
    p.add_argument("--input", required=True, help="noisy input WAV (PCM16 mono)")
    p.add_argument("--score-ckpt", help="score model checkpoint (.npz)")
    p.add_argument("--denoiser-ckpt", help="denoiser checkpoint (.npz)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--n-phi", type=int, help="number of guided reverse steps")
    group.add_argument("--t-phi", type=float, help="guidance switch time")
    p.add_argument("--streaming", choices=["on", "off"], default="off")
    p.add_argument("--chunk-ms", type=float, default=50.0, help="streaming chunk length")
    p.add_argument("--corrector-steps", type=int, default=1)
    p.add_argument("--corrector-snr", type=float, default=0.5)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("sweep-nphi", help="quality/cost table over guided step counts")
    _add_common(p)
    p.add_argument("--data-config", help="mixture recipe for the shared test set")
    p.add_argument("--score-ckpt", required=True)
    p.add_argument("--denoiser-ckpt", required=True)
    p.add_argument("--n-phi-list", default="0,6,12,18,24,30", help="comma-separated")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated run seeds")
    p.add_argument("--utterances", type=int, default=4, help="test utterances per cell")
    p.add_argument("--corrector-steps", type=int, default=1)
    p.add_argument("--corrector-snr", type=float, default=0.5)
    p.set_defaults(func=cmd_sweep_nphi)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True, help="path to a manifest.json")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    args._argv = list(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"gse: numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (GseError, OSError) as exc:
        print(f"gse: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
