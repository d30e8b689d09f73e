"""End-to-end command-line runs: exit codes, artifacts, and manifest replay."""

import csv
import json
import os
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import gse.cli
from gse.audio import MixSpec, read_wav, synthesize_pair, write_wav
from gse.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    FORWARD_CSV_HEADER,
    SWEEP_CSV_HEADER,
    _blas_core,
    _sweep_worker,
    main,
    make_dataset,
    sweep_threads,
)
from gse.errors import ConfigError, DivergenceError
from gse.nets import DenoiserNet, ScoreNet, save_checkpoint
from gse.sde import SdeParams
from gse.streaming import PEAK_TARGET, _normalizer


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def non_utf8_config(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"gamma = 2.0  # \xff\n")
    return path


def tiny_score_ckpt(path, params: SdeParams):
    """An untrained score checkpoint (frame 40) that records the given process."""
    save_checkpoint(path, ScoreNet(params, frame_size=40, hidden=6, seed=0), train_seed=0)
    return path


@pytest.fixture
def noise_free_config(tmp_path):
    """sigma_min == sigma_max: the process degenerates to a noise-free ODE, variance 0."""
    path = tmp_path / "noise-free.cfg"
    path.write_text("sigma_min = 0.01\nsigma_max = 0.01\n")
    return path


@pytest.fixture
def noisy_wav(tmp_path):
    """A 0.05 s noisy utterance (800 samples, 20 model frames at size 40)."""
    _, noisy = synthesize_pair(MixSpec(duration_s=0.05, seed=500))
    path = tmp_path / "noisy.wav"
    write_wav(path, noisy)
    return path


class TestExitCodes:
    def test_version_flag(self, capsys):
        assert run("--version") == EXIT_OK
        assert capsys.readouterr().out.startswith("gse ")

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == EXIT_CONFIG
        capsys.readouterr()

    def test_missing_required_out(self, capsys):
        assert run("simulate-forward") == EXIT_CONFIG
        capsys.readouterr()

    def test_n_phi_and_t_phi_are_mutually_exclusive(self, tmp_path, noisy_wav, capsys):
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--n-phi", 3, "--t-phi", 0.5)
        assert rc == EXIT_CONFIG
        assert "not allowed with" in capsys.readouterr().err


class TestThreadCap:
    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("GSE_THREADS", raising=False)
        assert sweep_threads() == (os.cpu_count() or 1)

    def test_explicit_value(self, monkeypatch):
        monkeypatch.setenv("GSE_THREADS", " 6 ")
        assert sweep_threads() == 6

    @pytest.mark.parametrize("bad", ["four", "0", "-2", "1.5"])
    def test_bad_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("GSE_THREADS", bad)
        with pytest.raises(ConfigError):
            sweep_threads()

    def test_bad_value_maps_to_config_exit_code(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("GSE_THREADS", "nope")
        rc = run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", "s.npz",
                 "--denoiser-ckpt", "d.npz", "--n-phi-list", "0", "--seeds", "0")
        assert rc == EXIT_CONFIG
        assert "GSE_THREADS" in capsys.readouterr().err


class TestSimulateForward:
    def test_moments_track_closed_forms(self, tmp_path, capsys):
        out = tmp_path / "fw"
        rc = run("simulate-forward", "--out", out, "--paths", 4000,
                 "--steps", 300, "--grid-points", 3, "--seed", 0)
        assert rc == EXIT_OK
        header, rows = read_csv(out / "forward_stats.csv")
        assert header == FORWARD_CSV_HEADER
        assert [float(r[0]) for r in rows] == [pytest.approx(t) for t in (1 / 3, 2 / 3, 1.0)]
        for _, mean_rel, emp_var, model_var in rows:
            assert abs(float(mean_rel)) < 0.05
            assert float(emp_var) == pytest.approx(float(model_var), rel=0.10)
        capsys.readouterr()

    def test_grid_must_divide_steps(self, tmp_path, capsys):
        rc = run("simulate-forward", "--out", tmp_path / "o", "--steps", 100,
                 "--grid-points", 3)
        assert rc == EXIT_CONFIG
        assert "multiple" in capsys.readouterr().err

    def test_zero_steps_is_config_error(self, tmp_path, capsys):
        rc = run("simulate-forward", "--out", tmp_path / "o", "--steps", 0,
                 "--grid-points", 1)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "steps" in err

    def test_too_few_paths(self, tmp_path, capsys):
        rc = run("simulate-forward", "--out", tmp_path / "o", "--paths", 1)
        assert rc == EXIT_CONFIG
        capsys.readouterr()

    def test_noise_free_process_reports_absolute_error(self, tmp_path, noise_free_config,
                                                        capsys):
        out = tmp_path / "fw"
        rc = run("simulate-forward", "--config", noise_free_config, "--out", out,
                 "--paths", 100, "--steps", 100, "--grid-points", 2)
        assert rc == EXIT_OK
        _, rows = read_csv(out / "forward_stats.csv")
        assert [float(r[3]) for r in rows] == [0.0, 0.0]
        assert "absolute where the model variance is 0" in capsys.readouterr().out

    def test_custom_process_config(self, tmp_path, capsys):
        cfg = tmp_path / "sde.cfg"
        cfg.write_text("gamma = 2.0\nsigma_min = 0.05\nsigma_max = 0.5\n")
        out = tmp_path / "fw"
        rc = run("simulate-forward", "--config", cfg, "--out", out,
                 "--paths", 2000, "--steps", 200, "--grid-points", 2)
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sde"]["gamma"] == 2.0
        assert str(cfg) in manifest["inputs"]
        capsys.readouterr()

    def test_replay_reproduces_csv_bytes(self, tmp_path, capsys):
        out = tmp_path / "fw"
        argv = ["simulate-forward", "--out", str(out), "--paths", "500",
                "--steps", "100", "--grid-points", "2", "--seed", "7"]
        assert main(argv) == EXIT_OK
        first = (out / "forward_stats.csv").read_bytes()
        (out / "forward_stats.csv").unlink()
        rc = run("replay", "--manifest", out / "manifest.json")
        assert rc == EXIT_OK
        assert (out / "forward_stats.csv").read_bytes() == first
        capsys.readouterr()

    def test_replay_rejects_manifest_without_argv(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{}")
        assert run("replay", "--manifest", bad) == EXIT_CONFIG
        assert "argv" in capsys.readouterr().err

    def test_replay_rejects_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        assert run("replay", "--manifest", bad) == EXIT_CONFIG
        assert "unreadable manifest" in capsys.readouterr().err

    def test_replay_rejects_non_object_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("[1, 2]")
        assert run("replay", "--manifest", bad) == EXIT_CONFIG
        assert "not a JSON object" in capsys.readouterr().err

    def test_replay_rejects_manifest_recording_a_replay(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"argv": ["replay", "--manifest", str(bad)]}))
        assert run("replay", "--manifest", bad) == EXIT_CONFIG
        assert "replay command" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["sigma_max = inf", "gamma = inf", "T = inf",
                                      "t_eps = nan"])
    def test_non_finite_process_config_is_config_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "sde.cfg"
        cfg.write_text(line + "\n")
        rc = run("simulate-forward", "--config", cfg, "--out", tmp_path / "o",
                 "--paths", 100, "--steps", 100, "--grid-points", 1)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "must be finite" in err

    @pytest.mark.parametrize("line", ["sigma_max = 1e300", "T = 200"])
    def test_overflowing_process_config_is_config_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "sde.cfg"
        cfg.write_text(line + "\n")
        rc = run("simulate-forward", "--config", cfg, "--out", tmp_path / "o",
                 "--paths", 100, "--steps", 100, "--grid-points", 1)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "overflows" in err

    def test_replay_warns_on_another_blas_kernel(self, tmp_path, capsys):
        """Output bits depend on OpenBLAS's run-time kernel, so the manifest records it."""
        out = tmp_path / "fw"
        assert run("simulate-forward", "--out", out, "--paths", 100, "--steps", 100,
                   "--grid-points", 1) == EXIT_OK
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["platform"]["blas_core"] == _blas_core()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] == "scipy-openblas":  # numpy's bundled OpenBLAS names its kernel
            assert doc["platform"]["blas_core"]
        doc["platform"]["blas_core"] = "NotThisKernel"
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("replay", "--manifest", doctored) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("gse: warning:") and "NotThisKernel" in err

    def test_replay_of_a_manifest_without_blas_core_is_silent(self, tmp_path, capsys):
        """Manifests written before the kernel was recorded lack ``blas_core``: unknown,
        not different."""
        out = tmp_path / "fw"
        assert run("simulate-forward", "--out", out, "--paths", 100, "--steps", 100,
                   "--grid-points", 1) == EXIT_OK
        doc = json.loads((out / "manifest.json").read_text())
        del doc["platform"]["blas_core"]
        older = tmp_path / "older.json"
        older.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("replay", "--manifest", older) == EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, tmp_path, non_utf8_config, capsys):
        rc = run("simulate-forward", "--config", non_utf8_config, "--out", tmp_path / "o")
        assert rc == EXIT_CONFIG
        assert "unreadable config" in capsys.readouterr().err


class TestMakeDataset:
    def test_pairs_share_the_inference_peak_normaliser(self):
        """Each pair is scaled so its noisy peak is the inference path's PEAK_TARGET."""
        spec = MixSpec(duration_s=0.05, seed=40)
        pairs = make_dataset(spec, 3, 40)
        assert len(pairs) == 3
        for i, (clean, noisy) in enumerate(pairs):
            raw_clean, raw_noisy = synthesize_pair(replace(spec, seed=spec.seed + i))
            n = raw_noisy.samples.size
            assert clean.size == noisy.size and noisy.size % 40 == 0 and noisy.size >= n
            scale = _normalizer(float(np.max(np.abs(raw_noisy.samples))))
            np.testing.assert_array_equal(noisy[:n], raw_noisy.samples * scale)
            np.testing.assert_array_equal(clean[:n], raw_clean.samples * scale)
            assert not noisy[n:].any() and not clean[n:].any()
            assert float(np.max(np.abs(noisy))) == pytest.approx(PEAK_TARGET, rel=1e-12)


class TestTrain:
    def test_denoiser_run_writes_checkpoint_and_curve(self, tmp_path, capsys):
        out = tmp_path / "tr"
        rc = run("train", "--role", "denoiser", "--out", out, "--steps", 10,
                 "--batch-size", 4, "--probe-every", 5, "--utterances", 3,
                 "--hidden", 6, "--frame-size", 16, "--seed", 0)
        assert rc == EXIT_OK
        assert (out / "denoiser.npz").exists()
        header, rows = read_csv(out / "loss_curve.csv")
        assert header == ["step", "train_loss", "probe_loss"]
        assert [int(r[0]) for r in rows] == list(range(0, 11))  # row 0 = baseline probe
        assert all(r[1] != "" for r in rows)
        assert rows[0][2] != "" and rows[5][2] != "" and rows[2][2] == ""
        assert "final probe loss" in capsys.readouterr().out

    def test_score_run_writes_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "tr"
        rc = run("train", "--role", "score", "--out", out, "--steps", 8,
                 "--batch-size", 4, "--utterances", 3, "--hidden", 6,
                 "--frame-size", 16, "--seed", 1)
        assert rc == EXIT_OK
        assert (out / "score.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["role"] == "score"
        capsys.readouterr()

    def test_sgd_momentum_optimizer_trains(self, tmp_path, capsys):
        out = tmp_path / "tr"
        rc = run("train", "--role", "denoiser", "--out", out, "--steps", 6,
                 "--batch-size", 2, "--utterances", 2, "--hidden", 6,
                 "--frame-size", 16, "--optimizer", "sgd-momentum")
        assert rc == EXIT_OK
        assert (out / "denoiser.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["optimizer"] == "momentum"
        capsys.readouterr()

    def test_non_utf8_data_config_is_config_error(self, tmp_path, non_utf8_config, capsys):
        rc = run("train", "--role", "denoiser", "--out", tmp_path / "o",
                 "--data-config", non_utf8_config)
        assert rc == EXIT_CONFIG
        assert "unreadable config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--utterances", 0, "training set is empty"),
        ("--probe-every", 0, "probe_every"),
        ("--frame-size", 0, "frame_size"),
    ])
    def test_degenerate_sizes_are_config_errors(self, tmp_path, flag, value, message,
                                                capsys):
        rc = run("train", "--role", "score", "--out", tmp_path / "o", flag, value)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and message in err

    def test_non_finite_learning_rate_is_config_error(self, tmp_path, capsys):
        rc = run("train", "--role", "denoiser", "--out", tmp_path / "o",
                 "--learning-rate", "nan")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "learning_rate must be finite" in err

    def test_non_finite_duration_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "mix.cfg"
        data.write_text("duration_s = nan\n")
        rc = run("train", "--role", "denoiser", "--out", tmp_path / "o",
                 "--data-config", data)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "duration_s must be finite" in err

    @pytest.mark.parametrize("duration", ["1e305", "1e300"])
    @pytest.mark.parametrize("command", ["train", "sweep-nphi"])
    def test_duration_no_array_can_hold_is_config_error(self, tmp_path, command, duration,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("GSE_THREADS", "1")
        data = tmp_path / "mix.cfg"
        data.write_text(f"duration_s = {duration}\n")
        den = tmp_path / "denoiser.npz"
        save_checkpoint(den, DenoiserNet(frame_size=40, hidden=6, seed=1))
        argv = (["train", "--role", "denoiser"] if command == "train" else
                ["sweep-nphi", "--score-ckpt", tiny_score_ckpt(tmp_path / "score.npz", SdeParams()),
                 "--denoiser-ckpt", den, "--n-phi-list", "0", "--seeds", "0", "--utterances", 1])
        rc = run(*argv, "--out", tmp_path / "o", "--data-config", data)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "duration_s" in err and "more than an array" in err

    @pytest.mark.parametrize("command", ["train", "sweep-nphi"])
    def test_sample_rate_past_a_float_is_config_error(self, tmp_path, command, monkeypatch,
                                                      capsys):
        """A rate no float holds cannot multiply the duration: exit 2, not OverflowError."""
        monkeypatch.setenv("GSE_THREADS", "1")
        data = tmp_path / "mix.cfg"
        data.write_text(f"sample_rate = 1{'0' * 400}\n")
        den = tmp_path / "denoiser.npz"
        save_checkpoint(den, DenoiserNet(frame_size=40, hidden=6, seed=1))
        argv = (["train", "--role", "denoiser"] if command == "train" else
                ["sweep-nphi", "--score-ckpt", tiny_score_ckpt(tmp_path / "score.npz", SdeParams()),
                 "--denoiser-ckpt", den, "--n-phi-list", "0", "--seeds", "0", "--utterances", 1])
        rc = run(*argv, "--out", tmp_path / "o", "--data-config", data)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "sample_rate" in err and "401-digit" in err

    def test_denoiser_blown_up_by_its_learning_rate_is_a_divergence(self, tmp_path, capsys):
        """Exit 3 without a numpy warning, even with warnings as errors."""
        data_cfg = tmp_path / "mix.cfg"
        MixSpec(duration_s=0.05).to_file(data_cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("train", "--out", tmp_path / "o", "--role", "denoiser", "--data-config",
                     data_cfg, "--steps", 3, "--batch-size", 2, "--utterances", 2, "--hidden", 4,
                     "--frame-size", 8, "--learning-rate", "1e300")
        assert rc == 3
        assert "numerical divergence" in capsys.readouterr().err

    def test_unknown_optimizer_rejected(self, tmp_path, capsys):
        rc = run("train", "--role", "score", "--out", tmp_path / "o",
                 "--optimizer", "rmsprop")
        assert rc == EXIT_CONFIG
        capsys.readouterr()


class TestEnhance:
    def test_unguided_run_never_calls_denoiser(self, tmp_path, noisy_wav,
                                               trained_ckpt_paths, capsys):
        score_ckpt, _ = trained_ckpt_paths
        out = tmp_path / "enh"
        rc = run("enhance", "--input", noisy_wav, "--out", out,
                 "--score-ckpt", score_ckpt, "--n-phi", 0, "--seed", 3)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n_phi"] == 0
        assert report["ledger"]["denoiser_forwards"] == 0
        assert report["ledger"]["score_net_forwards"] == 60  # (1 + 1 corrector) * 30
        assert report["streaming"] is False and report["chunk_size"] is None
        enhanced = read_wav(out / "enhanced.wav")
        original = read_wav(noisy_wav)
        assert enhanced.samples.shape == original.samples.shape
        assert enhanced.sample_rate == original.sample_rate
        capsys.readouterr()

    def test_fully_guided_run_needs_no_score_model(self, tmp_path, noisy_wav,
                                                   trained_ckpt_paths, capsys):
        _, denoiser_ckpt = trained_ckpt_paths
        out = tmp_path / "enh"
        rc = run("enhance", "--input", noisy_wav, "--out", out,
                 "--denoiser-ckpt", denoiser_ckpt, "--n-phi", 30)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["ledger"]["score_net_forwards"] == 0
        assert report["ledger"]["denoiser_forwards"] == 1
        capsys.readouterr()

    def test_switch_time_flag_maps_to_step_count(self, tmp_path, noisy_wav,
                                                 trained_ckpt_paths, capsys):
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        out = tmp_path / "enh"
        rc = run("enhance", "--input", noisy_wav, "--out", out,
                 "--score-ckpt", score_ckpt, "--denoiser-ckpt", denoiser_ckpt,
                 "--t-phi", 0.5)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["n_phi"] == 15 and report["t_phi"] == 0.5
        capsys.readouterr()

    def test_off_grid_switch_time_reports_the_switch_it_ran(self, tmp_path, noisy_wav,
                                                            trained_ckpt_paths, capsys):
        """t_phi = 0.55 guides the 14 grid steps above it; the run is the --n-phi 14 run,
        and both report that run's switch time 16/30, while argv keeps what was typed."""
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        nets = ("--score-ckpt", score_ckpt, "--denoiser-ckpt", denoiser_ckpt, "--seed", 2)
        runs = {}
        for flag, value in (("--t-phi", "0.55"), ("--n-phi", 14)):
            out = tmp_path / flag.strip("-")
            assert run("enhance", "--input", noisy_wav, "--out", out, *nets, flag, value) == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            manifest = json.loads((out / "manifest.json").read_text())
            assert report["n_phi"] == manifest["config"]["schedule"]["n_phi"] == 14
            assert report["t_phi"] == manifest["config"]["schedule"]["t_phi"] == 16 / 30
            runs[flag] = manifest["argv"], (out / "enhanced.wav").read_bytes()
        assert "0.55" in runs["--t-phi"][0]
        assert runs["--t-phi"][1] == runs["--n-phi"][1]
        capsys.readouterr()

    def test_wrong_role_checkpoint_rejected(self, tmp_path, noisy_wav,
                                            trained_ckpt_paths, capsys):
        _, denoiser_ckpt = trained_ckpt_paths
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", denoiser_ckpt, "--n-phi", 0)
        assert rc == EXIT_CONFIG
        assert "not a score checkpoint" in capsys.readouterr().err

    def test_unreadable_checkpoint_is_config_error(self, tmp_path, noisy_wav, capsys):
        bogus = tmp_path / "score.npz"
        bogus.write_text("not an archive\n")
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", bogus, "--n-phi", 0)
        assert rc == EXIT_CONFIG
        assert "unreadable checkpoint" in capsys.readouterr().err

    def test_checkpoint_trained_for_another_process_rejected(self, tmp_path, noisy_wav,
                                                             capsys):
        ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams(gamma=2.0))
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", ckpt, "--n-phi", 0)
        assert rc == EXIT_CONFIG
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("n_phi", [0, 12])
    def test_noise_free_process_is_a_domain_error(self, tmp_path, noisy_wav, noise_free_config,
                                                  n_phi, capsys):
        """The score net's gain 1/std(t) is undefined when std(t) = 0."""
        score = tiny_score_ckpt(tmp_path / "score.npz", SdeParams(sigma_min=0.01, sigma_max=0.01))
        den = tmp_path / "denoiser.npz"
        save_checkpoint(den, DenoiserNet(frame_size=40, hidden=6, seed=1))
        guided = ["--denoiser-ckpt", den] if n_phi else []
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o", "--config",
                 noise_free_config, "--score-ckpt", score, *guided, "--n-phi", n_phi)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "1/std(t) is undefined" in err

    def test_checkpoint_grid_size_may_differ(self, tmp_path, noisy_wav, capsys):
        ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams(N=15))
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", ckpt, "--n-phi", 0)
        assert rc == EXIT_OK
        capsys.readouterr()

    def test_missing_denoiser_checkpoint_rejected(self, tmp_path, noisy_wav,
                                                  trained_ckpt_paths, capsys):
        score_ckpt, _ = trained_ckpt_paths
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", score_ckpt, "--n-phi", 12)
        assert rc == EXIT_CONFIG
        assert "--denoiser-ckpt" in capsys.readouterr().err

    def test_garbage_input_file_is_config_error(self, tmp_path, trained_ckpt_paths,
                                                capsys):
        score_ckpt, _ = trained_ckpt_paths
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"\x00" * 100)
        rc = run("enhance", "--input", bad, "--out", tmp_path / "o",
                 "--score-ckpt", score_ckpt, "--n-phi", 0)
        assert rc == EXIT_CONFIG
        capsys.readouterr()

    def test_streaming_chunk_echoed_in_report(self, tmp_path, noisy_wav,
                                              trained_ckpt_paths, capsys):
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        out = tmp_path / "enh"
        rc = run("enhance", "--input", noisy_wav, "--out", out,
                 "--score-ckpt", score_ckpt, "--denoiser-ckpt", denoiser_ckpt,
                 "--n-phi", 12, "--streaming", "on", "--chunk-ms", 2.5)
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["streaming"] is True and report["chunk_size"] == 40
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["streaming"] == {
            "enabled": True, "chunk_ms": 2.5, "chunk_size": 40,
        }
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value, message", [
        ("--chunk-ms", "nan", "chunk_ms must be finite"),
        ("--chunk-ms", "inf", "chunk_ms must be finite"),
        ("--corrector-snr", "nan", "corrector_snr must be finite"),
    ])
    def test_non_finite_sampler_values_are_config_errors(self, tmp_path, noisy_wav, flag,
                                                         value, message, capsys):
        score_ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams())
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", score_ckpt, "--n-phi", 0, "--streaming", "on", flag, value)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and message in err

    def test_overflowing_corrector_step_is_a_divergence(self, tmp_path, noisy_wav, capsys):
        """A diverging run exits 3 without a numpy warning, even with warnings as errors."""
        score_ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                     "--score-ckpt", score_ckpt, "--n-phi", 0, "--corrector-snr", "1e300")
        assert rc == 3
        assert "after the corrector at step n=30 in rows [0]" in capsys.readouterr().err

    def test_streaming_chunk_must_align_with_frames(self, tmp_path, noisy_wav,
                                                    trained_ckpt_paths, capsys):
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", score_ckpt, "--denoiser-ckpt", denoiser_ckpt,
                 "--n-phi", 12, "--streaming", "on", "--chunk-ms", 2.0)
        assert rc == EXIT_CONFIG
        assert "multiple" in capsys.readouterr().err

    def test_replay_reproduces_enhanced_audio(self, tmp_path, noisy_wav,
                                              trained_ckpt_paths, capsys):
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        out = tmp_path / "enh"
        rc = run("enhance", "--input", noisy_wav, "--out", out,
                 "--score-ckpt", score_ckpt, "--denoiser-ckpt", denoiser_ckpt,
                 "--n-phi", 12, "--seed", 11)
        assert rc == EXIT_OK
        first = (out / "enhanced.wav").read_bytes()
        (out / "enhanced.wav").unlink()
        assert run("replay", "--manifest", out / "manifest.json") == EXIT_OK
        assert (out / "enhanced.wav").read_bytes() == first
        capsys.readouterr()


class TestSweep:
    def test_table_shape_costs_and_medians(self, tmp_path, noisy_wav,
                                           trained_ckpt_paths, monkeypatch, capsys):
        monkeypatch.setenv("GSE_THREADS", "1")
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        out = tmp_path / "sw"
        data_cfg = tmp_path / "mix.cfg"
        MixSpec(duration_s=0.05, seed=600).to_file(data_cfg)
        rc = run("sweep-nphi", "--out", out, "--score-ckpt", score_ckpt,
                 "--denoiser-ckpt", denoiser_ckpt, "--data-config", data_cfg,
                 "--n-phi-list", "0,15,30", "--seeds", "0,1", "--utterances", 1)
        assert rc == EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        assert header == SWEEP_CSV_HEADER
        cells = [r for r in rows if r[1] != "median"]
        medians = [r for r in rows if r[1] == "median"]
        assert len(cells) == 6 and len(medians) == 3
        assert [(int(r[0]), int(r[1])) for r in cells] == [
            (0, 0), (0, 1), (15, 0), (15, 1), (30, 0), (30, 1)
        ]
        forwards = {int(r[0]): int(r[4]) for r in cells}
        assert forwards == {0: 60, 15: 30, 30: 0}
        macs = {int(r[0]): int(r[5]) for r in cells}
        assert macs[15] * 2 == macs[0] + macs[30]  # exactly affine in n_phi
        for r in medians:
            float(r[2]), float(r[3])  # well-formed numbers
        capsys.readouterr()

    def test_out_of_range_step_counts_rejected(self, tmp_path, trained_ckpt_paths,
                                               capsys):
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        rc = run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", score_ckpt,
                 "--denoiser-ckpt", denoiser_ckpt, "--n-phi-list", "0,99")
        assert rc == EXIT_CONFIG
        assert "[0, N=30]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seeds", "--n-phi-list"])
    def test_duplicate_entries_rejected(self, tmp_path, flag, capsys):
        rc = run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", "s.npz",
                 "--denoiser-ckpt", "d.npz", flag, "0,1,0")
        assert rc == EXIT_CONFIG
        assert f"{flag} repeats [0]" in capsys.readouterr().err

    def test_checkpoint_trained_for_another_process_rejected(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setenv("GSE_THREADS", "1")
        ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams(t_eps=0.05))
        den = tmp_path / "denoiser.npz"
        save_checkpoint(den, DenoiserNet(frame_size=40, hidden=6, seed=1))
        rc = run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", ckpt,
                 "--denoiser-ckpt", den, "--n-phi-list", "0", "--seeds", "0",
                 "--utterances", 1)
        assert rc == EXIT_CONFIG
        assert "t_eps" in capsys.readouterr().err

    def test_wrong_role_checkpoint_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GSE_THREADS", "1")
        ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams())
        rc = run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", ckpt,
                 "--denoiser-ckpt", ckpt, "--n-phi-list", "0", "--seeds", "0",
                 "--utterances", 1)
        assert rc == EXIT_CONFIG
        assert "not a denoiser checkpoint" in capsys.readouterr().err

    def test_zero_utterances_is_config_error(self, tmp_path, capsys):
        rc = run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", "s.npz",
                 "--denoiser-ckpt", "d.npz", "--utterances", 0)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "--utterances" in err

    def test_non_integer_list_rejected(self, tmp_path, trained_ckpt_paths, capsys):
        score_ckpt, denoiser_ckpt = trained_ckpt_paths
        rc = run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", score_ckpt,
                 "--denoiser-ckpt", denoiser_ckpt, "--n-phi-list", "a,b")
        assert rc == EXIT_CONFIG
        capsys.readouterr()


class TestNegativeSeeds:
    """A negative seed is a configuration error (exit 2), not a traceback."""

    def check(self, rc, capsys, flag="--seed"):
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and "must be >= 0" in err and flag.lstrip("-") in err

    def test_simulate_forward(self, tmp_path, capsys):
        self.check(run("simulate-forward", "--out", tmp_path / "o", "--paths", 4, "--steps", 4,
                       "--grid-points", 2, "--seed", -1), capsys)

    def test_train(self, tmp_path, capsys):
        data_cfg = tmp_path / "mix.cfg"
        MixSpec(duration_s=0.05).to_file(data_cfg)
        self.check(run("train", "--out", tmp_path / "o", "--role", "denoiser",
                       "--data-config", data_cfg, "--steps", 1, "--batch-size", 2,
                       "--utterances", 2, "--hidden", 4, "--frame-size", 8, "--seed", -1),
                   capsys)

    def test_enhance(self, tmp_path, noisy_wav, capsys):
        score_ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams())
        self.check(run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                       "--score-ckpt", score_ckpt, "--n-phi", 0, "--seed", -1), capsys)

    def test_sweep_rejects_before_any_worker(self, tmp_path, capsys):
        # the checkpoints do not exist: a worker would fail on them first
        self.check(run("sweep-nphi", "--out", tmp_path / "o", "--score-ckpt", "s.npz",
                       "--denoiser-ckpt", "d.npz", "--seeds", "0,-1"), capsys, "--seeds")


class TestStreamingChunkLongerThanInput:
    @pytest.mark.parametrize("chunk_ms, messages", [
        # more samples than an array can hold: StreamConfig rejects it first
        ("1e300", ("chunk_ms = 1e+300", "more than an array can hold")),
        ("60000", ("800", "--streaming off")),
        ("1e308", ("chunk_ms = 1e+308 gives inf samples",)),
    ], ids=["1e300", "60000", "1e308"])
    def test_rejected_before_any_allocation(self, tmp_path, noisy_wav, chunk_ms, messages,
                                            capsys):
        score_ckpt = tiny_score_ckpt(tmp_path / "score.npz", SdeParams())
        rc = run("enhance", "--input", noisy_wav, "--out", tmp_path / "o",
                 "--score-ckpt", score_ckpt, "--n-phi", 0, "--streaming", "on",
                 "--chunk-ms", chunk_ms)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("gse:") and all(m in err for m in messages)


def sweep_task(tmp_path, utterances, n_phi=12, seed=3):
    params = SdeParams()
    score = tiny_score_ckpt(tmp_path / "score.npz", params)
    den = tmp_path / "denoiser.npz"
    save_checkpoint(den, DenoiserNet(frame_size=40, hidden=6, seed=1))
    return {"n_phi": n_phi, "seed": seed, "sde": asdict(params),
            "mix": asdict(MixSpec(duration_s=0.05, seed=600)), "score_ckpt": str(score),
            "denoiser_ckpt": str(den), "utterances": utterances, "corrector_steps": 1,
            "corrector_snr": 0.5}


class TestSweepCellBatch:
    def test_cost_columns_do_not_depend_on_the_batch(self, tmp_path):
        one = _sweep_worker(sweep_task(tmp_path, 1))
        three = _sweep_worker(sweep_task(tmp_path, 3))
        for col in ("score_net_forwards", "mac_total"):
            assert three[col] == one[col]
        assert one["score_net_forwards"] == 2 * (30 - 12)

    def test_divergence_names_the_cell(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite state after the predictor at step n=4 in rows [2]")

        monkeypatch.setattr(gse.cli, "enhance_offline", diverge)
        with pytest.raises(DivergenceError, match=r"cell \(n_phi=12, seed=3\): .* rows \[2\]"):
            _sweep_worker(sweep_task(tmp_path, 3))


class TestManifest:
    def test_records_command_argv_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "fw"
        argv = ["simulate-forward", "--out", str(out), "--paths", "100",
                "--steps", "50", "--grid-points", "1"]
        assert main(argv) == EXIT_OK
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "simulate-forward"
        assert doc["argv"] == argv
        assert doc["version"].startswith("gse-")
        assert all(os.path.exists(p) for p in doc["outputs"])
        assert doc["platform"]["numpy"] == np.__version__
        assert set(doc["platform"]) == {"python", "numpy", "blas_name", "blas_version",
                                        "blas_core"}
        capsys.readouterr()

    def test_replay_warns_on_another_platform_and_still_runs(self, tmp_path, capsys):
        out = tmp_path / "fw"
        assert run("simulate-forward", "--out", out, "--paths", 200, "--steps", 100,
                   "--grid-points", 1) == EXIT_OK
        first = (out / "forward_stats.csv").read_bytes()
        capsys.readouterr()
        assert run("replay", "--manifest", out / "manifest.json") == EXIT_OK
        assert "warning" not in capsys.readouterr().err  # same platform: silent
        doc = json.loads((out / "manifest.json").read_text())
        doc["platform"]["blas_version"] = "0.0.0"
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        (out / "forward_stats.csv").unlink()
        assert run("replay", "--manifest", doctored) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("gse: warning:") and "0.0.0" in err
        assert (out / "forward_stats.csv").read_bytes() == first
