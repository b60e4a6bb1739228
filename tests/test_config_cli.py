"""Config parsing and the command-line workflow end to end."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from voclab.cli import main
from voclab.config import ConfigError, default_config_text, parse_config
from voclab.trainer import desk_config


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigParsing:
    def test_default_text_round_trips_to_defaults(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(default_config_text("melgan"))
        cfg, corpus_dir = parse_config(p)
        assert cfg == desk_config("melgan")
        assert corpus_dir is None

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
        ],
    )
    def test_train_rejects_bad_value(self, runner, tmp_path, text, key):
        p = tmp_path / "run.ini"
        p.write_text(text)
        res = runner.invoke(main, ["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert key in res.output

    def test_train_requires_corpus_dir(self, runner, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text("[trainer]\ntotal_iterations = 1\nd_start_iteration = 1\n")
        res = runner.invoke(main, ["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "corpus_dir" in res.output

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

    def test_eval_with_no_pairs_fails(self, runner, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        res = runner.invoke(
            main,
            ["eval", "--ref", str(tmp_path / "a"), "--syn", str(tmp_path / "b"),
             "--out", str(tmp_path / "r")],
        )
        assert res.exit_code == 1

    def test_gradcheck_single_target(self, runner):
        res = runner.invoke(main, ["gradcheck", "--which", "topk_mean"])
        assert res.exit_code == 0, res.output
        assert "topk_mean" in res.output and "ok" in res.output

    def test_gradcheck_unknown_target(self, runner):
        res = runner.invoke(main, ["gradcheck", "--which", "nonexistent"])
        assert res.exit_code == 1
