"""Config parsing and the command-line workflow end to end."""

import json
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from voclab.cli import main
from voclab.config import ConfigError, default_config_text, parse_config, schema
from voclab import tensor as tt
from voclab.data import AudioClip, read_wav, save_corpus, synth_corpus, write_wav
from voclab.dsp import aligned_mel_spectrogram, mel_filterbank
from voclab.models import CONDITIONING, melgan_generate, pwgan_generate
from voclab.tensor import Tensor
from voclab.losses import PrlsConfig
from voclab.trainer import (
    OptimizerConfig, TrainConfig, Trainer, desk_config, save_checkpoint,
)


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigParsing:
    @pytest.mark.parametrize("vocoder", ["melgan", "pwgan"])
    def test_default_text_round_trips_to_defaults(self, tmp_path, vocoder):
        p = tmp_path / "run.ini"
        p.write_text(default_config_text(vocoder))
        cfg, corpus_dir = parse_config(p)
        assert cfg == desk_config(vocoder)
        assert corpus_dir is None

    def test_every_key_lands_in_its_field(self, tmp_path):
        # (text, parsed value), each unlike the pwgan desk default
        want = {
            "corpus_dir": ("/corpus", Path("/corpus")),
            "batch_size": ("3", 3),
            "segment_length": ("8192", 8192),
            "vocoder": ("pwgan", "pwgan"),
            "n_mels": ("64", 64),
            "mel_fmin": ("40", 40.0),
            "mel_fmax": ("8000", 8000.0),
            "total_iterations": ("500", 500),
            "d_start_iteration": ("100", 100),
            "g_optimizer": ("adam", "adam"),
            "g_lr": ("2e-4", 2e-4),
            "g_grad_clip": ("5", 5.0),
            "d_optimizer": ("adam", "adam"),
            "d_lr": ("3e-4", 3e-4),
            "d_grad_clip": ("none", None),
            "g_lr_halvings": ("200, 300", (200, 300)),
            "d_lr_halvings": ("400", (400,)),
            "seed": ("5", 5),
            "dtype": ("float64", "float64"),
            "log_interval": ("7", 7),
            "checkpoint_interval": ("0", 0),
            "adv_mode": ("lsgan", "lsgan"),
            "lambda_rls": ("0.3", 0.3),
            "margin": ("0.5", 0.5),
            "lambda_adv": ("2", 2.0),
            "lambda_topk": ("0.02", 0.02),
            "k_fraction": ("0.2", 0.2),
        }
        table = schema()
        assert sorted(k for keys in table.values() for k in keys) == sorted(want)
        p = tmp_path / "run.ini"
        p.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {want[key][0]}\n" for key in keys)
            for section, keys in table.items()
        ))
        cfg, corpus_dir = parse_config(p)
        base = desk_config("pwgan")
        for keys in table.values():
            for key, (path, _, _) in keys.items():
                got = corpus_dir if key == "corpus_dir" else reduce(getattr, path, cfg)
                assert got == want[key][1], key
                if key not in ("corpus_dir", "vocoder"):
                    assert got != reduce(getattr, path, base), key

    def test_every_field_is_exposed_or_named_unexposed(self):
        unexposed = {"stft", "betas"}
        for cls in (TrainConfig, OptimizerConfig, PrlsConfig):
            for f in fields(cls):
                exposed = "section" in f.metadata or "prefix" in f.metadata
                assert exposed != (f.name in unexposed), f"{cls.__name__}.{f.name}"

    def test_empty_values_keep_vocoder_defaults(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(
            "[model]\nvocoder = pwgan\nn_mels =\n"
            "[trainer]\ng_optimizer =\ng_lr =\ng_grad_clip =\ng_lr_halvings =\n"
        )
        cfg, _ = parse_config(p)
        assert cfg == desk_config("pwgan")

    def test_keys_are_checked_together(self, tmp_path):
        # total_iterations = 10 with the default d_start_iteration of 2000 is invalid
        p = tmp_path / "run.ini"
        p.write_text("[trainer]\ntotal_iterations = 10\nd_start_iteration = 5\n")
        cfg, _ = parse_config(p)
        assert (cfg.total_iterations, cfg.d_start_iteration) == (10, 5)

    @pytest.mark.parametrize(
        "text", ["[trainer]\ng_grad_clip = default\n", "[trainer]\ng_lr = none\n"]
    )
    def test_old_sentinels_rejected(self, tmp_path, text):
        p = tmp_path / "run.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(p)

    def test_metrics_section_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[metrics]\n")
        with pytest.raises(ConfigError, match="metrics"):
            parse_config(p)

    def test_pwgan_defaults_to_radam(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(default_config_text("pwgan"))
        cfg, _ = parse_config(p)
        assert cfg.g_optimizer.kind == "radam"
        assert cfg.g_optimizer.lr == 1e-4
        assert cfg.g_optimizer.grad_clip == 10.0

    def test_unknown_keys_and_sections_all_reported(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[trainer]\nlearning_rate = 1\n[extras]\nfoo = 1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(p)
        msg = str(exc.value)
        assert "learning_rate" in msg
        assert "extras" in msg

    def test_unparseable_value_reported(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[trainer]\ntotal_iterations = soon\n")
        with pytest.raises(ConfigError, match="total_iterations"):
            parse_config(p)

    def test_overrides_apply(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(
            "[data]\ncorpus_dir = /somewhere\nsegment_length = 2048\n"
            "[trainer]\ng_lr = 0.005\ng_grad_clip = none\nd_grad_clip = 2.5\n"
            "g_lr_halvings = 1000, 1500\nseed = 7\ndtype = float64\n"
            "[losses]\nadv_mode = lsgan\nlambda_rls = 0.2\n"
        )
        cfg, corpus_dir = parse_config(p)
        assert corpus_dir == Path("/somewhere")
        assert cfg.segment_length == 2048
        assert cfg.g_optimizer.lr == 0.005
        assert cfg.g_optimizer.grad_clip is None
        assert cfg.d_optimizer.grad_clip == 2.5
        assert cfg.g_lr_halvings == (1000, 1500)
        assert cfg.seed == 7
        assert cfg.dtype == "float64"
        assert cfg.adv_mode == "lsgan"
        assert cfg.prls.lambda_rls == 0.2

    def test_invalid_combination_rejected(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[trainer]\ntotal_iterations = 10\nd_start_iteration = 20\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")


class TestCliWorkflow:
    def _make_corpus(self, runner, tmp_path, seed=0):
        out = tmp_path / "corpus"
        res = runner.invoke(
            main,
            ["make-data", "--seed", str(seed), "--out", str(out), "--clips", "10", "--seconds", "0.5"],
        )
        assert res.exit_code == 0, res.output
        return out

    def test_make_data_is_deterministic(self, runner, tmp_path):
        a = self._make_corpus(runner, tmp_path / "a")
        b = self._make_corpus(runner, tmp_path / "b")
        for pa in sorted(a.glob("*.wav")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        assert len(manifest["train"]) + len(manifest["test"]) == 10

    def test_init_config_output_parses(self, runner, tmp_path):
        p = tmp_path / "run.ini"
        res = runner.invoke(main, ["init-config", "--out", str(p)])
        assert res.exit_code == 0, res.output
        cfg, _ = parse_config(p)
        assert cfg.vocoder == "melgan"

    def test_init_config_rejects_unknown_vocoder(self, runner, tmp_path):
        p = tmp_path / "run.ini"
        res = runner.invoke(main, ["init-config", "--vocoder", "wavenet", "--out", str(p)])
        assert res.exit_code == 1
        assert "wavenet" in res.output
        assert not p.exists()

    def test_train_rejects_bad_config(self, runner, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[trainer]\nwat = 1\n")
        res = runner.invoke(main, ["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "wat" in res.output

    @pytest.mark.parametrize(
        "text,key",
        [
            ("[trainer]\ndtype = float16\n", "dtype"),
            ("[trainer]\nlog_interval = 0\n", "log_interval"),
            ("[data]\nbatch_size = 0\n", "batch_size"),
            ("[data]\nsegment_length = 1024\n", "segment_length"),
            ("[losses]\nlambda_adv_baseline = 4.0\n", "lambda_adv_baseline"),
            ("[trainer]\ng_optimizer = sgd\n", "optimizer"),
            ("[trainer]\ng_grad_clip = -1\n", "grad_clip"),
            ("[model]\nn_mels = 0\n", "n_mels"),
            ("[model]\nmel_fmax = 50000\n", "mel_fmax"),
            ("[trainer]\ncheckpoint_interval = -1\n", "checkpoint_interval"),
        ],
    )
    def test_train_rejects_bad_value(self, runner, tmp_path, text, key):
        p = tmp_path / "run.ini"
        p.write_text(text)
        res = runner.invoke(main, ["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert key in res.output

    def test_train_requires_corpus_dir(self, runner, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[trainer]\ntotal_iterations = 1\nd_start_iteration = 1\n")
        res = runner.invoke(main, ["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "corpus_dir" in res.output

    def test_train_rejects_corpus_not_at_22050_hz(self, runner, tmp_path):
        corpus = tmp_path / "corpus16k"
        save_corpus(synth_corpus(0, n_clips=10, duration_s=0.5, n_test=2, sample_rate=16000), corpus)
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[data]\ncorpus_dir = {corpus}\nbatch_size = 2\nsegment_length = 4096\n"
            "[trainer]\ntotal_iterations = 3\nd_start_iteration = 2\n"
        )
        out = tmp_path / "run_out"
        res = runner.invoke(main, ["train", "--config", str(ini), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "16000 Hz" in res.output
        assert not (out / "train_log.jsonl").exists()

    def _train_on(self, runner, tmp_path, corpus):
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[data]\ncorpus_dir = {corpus}\nbatch_size = 2\nsegment_length = 4096\n"
            "[trainer]\ntotal_iterations = 3\nd_start_iteration = 2\n"
        )
        out = tmp_path / "run_out"
        res = runner.invoke(main, ["train", "--config", str(ini), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output
        assert not out.exists()
        return res.output

    def test_train_rejects_clips_shorter_than_a_segment(self, runner, tmp_path):
        corpus = tmp_path / "short"
        save_corpus(synth_corpus(0, n_clips=4, duration_s=0.1, n_test=1), corpus)
        output = self._train_on(runner, tmp_path, corpus)
        assert "2205 samples" in output and "segment_length 4096" in output

    def test_train_rejects_an_empty_split(self, runner, tmp_path):
        corpus = tmp_path / "one"
        corpus.mkdir()
        write_wav(corpus / "only.wav", AudioClip(np.zeros(8192)))
        output = self._train_on(runner, tmp_path, corpus)
        assert "0 train and 1 test" in output

    def test_train_synth_eval_pipeline(self, runner, tmp_path):
        corpus = self._make_corpus(runner, tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[data]\ncorpus_dir = {corpus}\nbatch_size = 2\nsegment_length = 4096\n"
            "[trainer]\ntotal_iterations = 3\nd_start_iteration = 2\n"
            "log_interval = 1\ncheckpoint_interval = 3\n"
        )
        out = tmp_path / "run_out"
        res = runner.invoke(main, ["train", "--config", str(ini), "--out", str(out)])
        assert res.exit_code == 0, res.output
        log = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        assert [r["iteration"] for r in log] == [1, 2, 3]
        assert log[0]["phase"] == "pretrain" and log[-1]["phase"] == "adversarial"
        ckpt = out / "checkpoint_00000003.npz"
        assert ckpt.exists()

        syn = tmp_path / "syn"
        res = runner.invoke(
            main, ["synth", "--checkpoint", str(ckpt), "--mel-from", str(corpus), "--out", str(syn)]
        )
        assert res.exit_code == 0, res.output
        wavs = sorted(syn.glob("*.wav"))
        assert len(wavs) == 10

        rep = tmp_path / "report"
        res = runner.invoke(
            main, ["eval", "--ref", str(corpus), "--syn", str(syn), "--out", str(rep)]
        )
        assert res.exit_code == 0, res.output
        data = json.loads(rep.with_suffix(".json").read_text())
        assert len(data["pairs"]) == 10
        assert "MCD" in res.output

    def test_synth_uses_checkpoint_mel_range(self, runner, tmp_path):
        corpus = synth_corpus(0, n_clips=4, duration_s=0.5, n_test=1)
        save_corpus(corpus, tmp_path / "corpus")
        tr = Trainer(desk_config("melgan", mel_fmax=8000.0), corpus, tmp_path / "run")
        ckpt = save_checkpoint(tmp_path / "ck.npz", tr)
        syn = tmp_path / "syn"
        res = runner.invoke(
            main, ["synth", "--checkpoint", str(ckpt), "--mel-from", str(tmp_path / "corpus"),
                   "--out", str(syn)],
        )
        assert res.exit_code == 0, res.output
        fb = mel_filterbank(80, 22050, 0.0, 8000.0, fft_size=1024)
        for ref in sorted((tmp_path / "corpus").glob("*.wav")):
            clip = read_wav(ref)
            n = (len(clip) // 256) * 256
            mel = aligned_mel_spectrogram(
                Tensor(clip.samples[:n].astype(np.float32)), fb, CONDITIONING
            )
            wav = melgan_generate(tt.reshape(mel, (1,) + mel.shape), tr.g_spec, tr.g_params)
            write_wav(tmp_path / "expected.wav", AudioClip(np.clip(wav.data[0, 0], -1.0, 1.0)))
            assert (syn / ref.name).read_bytes() == (tmp_path / "expected.wav").read_bytes()

    def test_synth_pwgan_draws_noise_per_file_from_seed(self, runner, tmp_path):
        corpus = synth_corpus(0, n_clips=4, duration_s=0.5, n_test=1)
        save_corpus(corpus, tmp_path / "corpus")
        tr = Trainer(desk_config("pwgan", mel_fmin=40.0), corpus, tmp_path / "run")
        ckpt = save_checkpoint(tmp_path / "ck.npz", tr)
        syn = tmp_path / "syn"
        res = runner.invoke(
            main, ["synth", "--checkpoint", str(ckpt), "--mel-from", str(tmp_path / "corpus"),
                   "--out", str(syn), "--seed", "3"],
        )
        assert res.exit_code == 0, res.output
        fb = mel_filterbank(80, 22050, 40.0, 11025.0, fft_size=1024)
        rng = np.random.default_rng(3)
        for ref in sorted((tmp_path / "corpus").glob("*.wav")):
            clip = read_wav(ref)
            n = (len(clip) // 256) * 256
            mel = aligned_mel_spectrogram(
                Tensor(clip.samples[:n].astype(np.float32)), fb, CONDITIONING
            )
            noise = Tensor(rng.standard_normal((1, 1, n)).astype(np.float32))
            wav = pwgan_generate(noise, tt.reshape(mel, (1,) + mel.shape), tr.g_spec, tr.g_params)
            write_wav(tmp_path / "expected.wav", AudioClip(np.clip(wav.data[0, 0], -1.0, 1.0)))
            assert (syn / ref.name).read_bytes() == (tmp_path / "expected.wav").read_bytes()

    def test_resume_rejects_garbage_checkpoint(self, runner, tmp_path):
        corpus = self._make_corpus(runner, tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[data]\ncorpus_dir = {corpus}\nbatch_size = 2\n"
            "[trainer]\ntotal_iterations = 1\nd_start_iteration = 1\n"
        )
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a checkpoint")
        res = runner.invoke(
            main,
            ["train", "--config", str(ini), "--out", str(tmp_path / "o"), "--resume", str(bad)],
        )
        assert res.exit_code == 1
        assert "checkpoint" in res.output.lower()

    def test_synth_rejects_bad_checkpoint(self, runner, tmp_path):
        corpus = self._make_corpus(runner, tmp_path)
        bad = tmp_path / "bad.npz"
        np.savez(bad, junk=np.zeros(3))
        res = runner.invoke(
            main,
            ["synth", "--checkpoint", str(bad), "--mel-from", str(corpus), "--out", str(tmp_path / "s")],
        )
        assert res.exit_code == 1

    def test_checkpoint_without_its_keys_rejected(self, runner, tmp_path):
        corpus = self._make_corpus(runner, tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[data]\ncorpus_dir = {corpus}\nbatch_size = 2\n"
            "[trainer]\ntotal_iterations = 1\nd_start_iteration = 1\n"
        )
        bare = tmp_path / "bare.npz"
        np.savez(bare, __version__=np.array(1))
        for args in (
            ["synth", "--checkpoint", bare, "--mel-from", corpus, "--out", tmp_path / "s"],
            ["train", "--config", ini, "--out", tmp_path / "o", "--resume", bare],
        ):
            res = runner.invoke(main, [str(a) for a in args])
            assert res.exit_code == 1
            assert isinstance(res.exception, SystemExit)
            assert "error:" in res.output and "__vocoder__" in res.output

    def _melgan_checkpoint(self, tmp_path):
        corpus = synth_corpus(0, n_clips=4, duration_s=0.5, n_test=1)
        tr = Trainer(desk_config("melgan"), corpus, tmp_path / "run")
        return save_checkpoint(tmp_path / "ck.npz", tr)

    def test_synth_rejects_wav_not_at_22050_hz(self, runner, tmp_path):
        ckpt = self._melgan_checkpoint(tmp_path)
        refs = tmp_path / "refs"
        refs.mkdir()
        write_wav(refs / "a.wav", AudioClip(np.zeros(8192), 22050))
        write_wav(refs / "b.wav", AudioClip(np.zeros(8192), 16000))
        syn = tmp_path / "syn"
        res = runner.invoke(
            main, ["synth", "--checkpoint", str(ckpt), "--mel-from", str(refs), "--out", str(syn)]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "b.wav" in res.output and "16000 Hz" in res.output
        assert not list(syn.glob("*.wav"))

    def test_synth_counts_written_files(self, runner, tmp_path):
        ckpt = self._melgan_checkpoint(tmp_path)
        refs = tmp_path / "refs"
        refs.mkdir()
        write_wav(refs / "long.wav", AudioClip(np.zeros(4096)))
        write_wav(refs / "short.wav", AudioClip(np.zeros(512)))
        syn = tmp_path / "syn"
        res = runner.invoke(
            main, ["synth", "--checkpoint", str(ckpt), "--mel-from", str(refs), "--out", str(syn)]
        )
        assert res.exit_code == 0, res.output
        assert "skipping short.wav" in res.output
        assert "wrote 1 files" in res.output
        assert [p.name for p in syn.glob("*.wav")] == ["long.wav"]

    def test_eval_with_no_pairs_fails(self, runner, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        res = runner.invoke(
            main,
            ["eval", "--ref", str(tmp_path / "a"), "--syn", str(tmp_path / "b"),
             "--out", str(tmp_path / "r")],
        )
        assert res.exit_code == 1

    def _eval_fails(self, runner, tmp_path, syn_wav):
        ref, syn = tmp_path / "ref", tmp_path / "syn"
        ref.mkdir()
        syn.mkdir()
        write_wav(ref / "a.wav", AudioClip(np.zeros(4096)))
        syn_wav(syn / "a.wav")
        res = runner.invoke(
            main, ["eval", "--ref", str(ref), "--syn", str(syn), "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output
        return res.output

    def test_eval_rejects_pair_at_different_rates(self, runner, tmp_path):
        output = self._eval_fails(
            runner, tmp_path, lambda p: write_wav(p, AudioClip(np.zeros(4096), 16000))
        )
        assert "16000" in output

    def test_eval_rejects_unreadable_wav(self, runner, tmp_path):
        output = self._eval_fails(runner, tmp_path, lambda p: p.write_bytes(b"not a wav"))
        assert "a.wav" in output

    def test_gradcheck_single_target(self, runner):
        res = runner.invoke(main, ["gradcheck", "--which", "topk_mean"])
        assert res.exit_code == 0, res.output
        assert "topk_mean" in res.output and "ok" in res.output

    def test_gradcheck_unknown_target(self, runner):
        res = runner.invoke(main, ["gradcheck", "--which", "nonexistent"])
        assert res.exit_code == 1
