"""Training loop: schedule, determinism, checkpointing, divergence handling."""

import json

import numpy as np
import pytest

from voclab.data import synth_corpus
from voclab.losses import PrlsConfig
from voclab.trainer import (
    CheckpointError,
    OptimizerConfig,
    TrainConfig,
    Trainer,
    TrainingDiverged,
    _lr_at,
    desk_config,
    load_checkpoint,
    load_generator,
    save_checkpoint,
    train,
)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(0, n_clips=6, duration_s=0.3, n_test=2)


def tiny_config(**overrides):
    base = dict(
        total_iterations=4,
        d_start_iteration=2,
        batch_size=2,
        segment_length=2048,
        dtype="float64",
        log_interval=1,
        checkpoint_interval=0,
    )
    base.update(overrides)
    return desk_config("melgan", **base)


class TestConfig:
    def test_desk_defaults_per_vocoder(self):
        mg = desk_config("melgan")
        assert (mg.g_optimizer.kind, mg.g_optimizer.lr) == ("adam", 1e-3)
        assert mg.g_optimizer.grad_clip is None
        assert mg.d_optimizer.grad_clip == 1.0
        pw = desk_config("pwgan")
        assert (pw.g_optimizer.kind, pw.g_optimizer.lr) == ("radam", 1e-4)
        assert pw.g_optimizer.grad_clip == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(vocoder="wavenet")
        with pytest.raises(ValueError):
            TrainConfig(d_start_iteration=10, total_iterations=5)
        with pytest.raises(ValueError):
            TrainConfig(segment_length=1000)
        with pytest.raises(ValueError):
            TrainConfig(g_optimizer=OptimizerConfig(lr=0.0))
        with pytest.raises(ValueError):
            TrainConfig(adv_mode="hinge")
        with pytest.raises(ValueError, match="dtype"):
            TrainConfig(dtype="float16")
        with pytest.raises(ValueError, match="log_interval"):
            TrainConfig(log_interval=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="segment_length"):
            TrainConfig(segment_length=1024)  # shorter than the 1200-sample STFT window

    @pytest.mark.parametrize("vocoder", ["melgan", "pwgan"])
    def test_shortest_segment_trains(self, corpus, tmp_path, vocoder):
        cfg = desk_config(
            vocoder,
            total_iterations=1,
            d_start_iteration=0,
            batch_size=1,
            segment_length=1280,
            dtype="float64",
            checkpoint_interval=0,
        )
        rec = Trainer(cfg, corpus, tmp_path).step()
        assert rec["phase"] == "adversarial"
        assert np.isfinite(rec["g_loss"]) and np.isfinite(rec["d_loss"])

    def test_lr_halving_schedule(self):
        assert _lr_at(1.0, (), 500) == 1.0
        assert _lr_at(1.0, (100, 200), 99) == 1.0
        assert _lr_at(1.0, (100, 200), 100) == 0.5
        assert _lr_at(1.0, (100, 200), 250) == 0.25


class TestLoop:
    def test_two_runs_bit_identical(self, corpus, tmp_path):
        records = []
        for sub in ("a", "b"):
            tr = Trainer(tiny_config(), corpus, tmp_path / sub)
            records.append([tr.step() for _ in range(4)])
        assert records[0] == records[1]

    def test_warm_start_freezes_discriminator(self, corpus, tmp_path):
        tr = Trainer(tiny_config(), corpus, tmp_path / "w")
        before = tr.d_params.state()
        rec1 = tr.step()
        rec2 = tr.step()
        assert rec1["phase"] == rec2["phase"] == "pretrain"
        assert "d_loss" not in rec1
        for name, arr in tr.d_params.state().items():
            assert np.array_equal(arr, before[name])
        rec3 = tr.step()
        assert rec3["phase"] == "adversarial"
        assert "d_loss" in rec3 and "mean_real_score" in rec3
        assert any(
            not np.array_equal(arr, before[name]) for name, arr in tr.d_params.state().items()
        )
        # D grads stay usable for the next iteration (requires_grad restored)
        rec4 = tr.step()
        assert rec4["d_loss"] != rec3["d_loss"]

    def test_generator_updates_every_iteration(self, corpus, tmp_path):
        tr = Trainer(tiny_config(), corpus, tmp_path / "g")
        before = tr.g_params.state()
        tr.step()
        assert any(
            not np.array_equal(arr, before[name]) for name, arr in tr.g_params.state().items()
        )

    def test_prls_and_baseline_share_pretrain_then_diverge(self, corpus, tmp_path):
        rec_p, rec_b = [], []
        for mode, acc in (("prls", rec_p), ("lsgan", rec_b)):
            tr = Trainer(tiny_config(adv_mode=mode), corpus, tmp_path / mode)
            acc.extend(tr.step() for _ in range(4))
        assert rec_p[0] == rec_b[0] and rec_p[1] == rec_b[1]  # pretrain identical
        assert rec_p[2]["d_loss"] != rec_b[2]["d_loss"]  # new terms live at once

    def test_lsgan_mode_weights_adversarial_term_by_lambda_adv(self, corpus, tmp_path):
        recs = {}
        for lam in (4.0, 2.0):
            cfg = tiny_config(adv_mode="lsgan", prls=PrlsConfig(lambda_adv=lam))
            tr = Trainer(cfg, corpus, tmp_path / str(lam))
            recs[lam] = [tr.step() for _ in range(3)][2]  # first adversarial step
        assert recs[4.0]["g_loss"] != recs[2.0]["g_loss"]
        assert recs[4.0]["d_loss"] == recs[2.0]["d_loss"]
        adv = {lam: r["g_loss"] - r["stft_loss"] for lam, r in recs.items()}
        assert adv[4.0] == pytest.approx(2.0 * adv[2.0], rel=1e-9)

    def test_pwgan_variant_steps(self, corpus, tmp_path):
        cfg = desk_config(
            "pwgan",
            total_iterations=2,
            d_start_iteration=1,
            batch_size=1,
            segment_length=2048,
            dtype="float64",
            checkpoint_interval=0,
        )
        tr = Trainer(cfg, corpus, tmp_path / "pw")
        rec1 = tr.step()
        rec2 = tr.step()
        assert rec1["phase"] == "pretrain"
        assert rec2["phase"] == "adversarial"
        assert np.isfinite(rec2["d_loss"])

    def test_divergence_writes_snapshot(self, corpus, tmp_path):
        tr = Trainer(tiny_config(), corpus, tmp_path / "nan")
        name = tr.g_params.names()[0]
        bad = tr.g_params[name].data.copy()
        bad.flat[0] = np.nan
        tr.g_params.set_data(name, bad)
        with pytest.raises(TrainingDiverged) as exc:
            tr.step()
        assert exc.value.snapshot_path.exists()
        blobs = np.load(exc.value.snapshot_path)
        assert f"g.{name}" in blobs


    def test_nonfinite_gradient_stops_before_the_update(self, corpus, tmp_path, monkeypatch):
        tr = Trainer(tiny_config(), corpus, tmp_path / "nan_grad")
        before = {f"g.{n}": a for n, a in tr.g_params.state().items()}
        grads_by_name = Trainer._grads_by_name

        def poisoned(self, grad_map, params):
            grads = grads_by_name(self, grad_map, params)
            name = next(iter(grads))
            grads[name] = grads[name].copy()
            grads[name].flat[0] = np.nan
            return grads

        monkeypatch.setattr(Trainer, "_grads_by_name", poisoned)
        with pytest.raises(TrainingDiverged, match="gradient") as exc:
            tr.step()
        blobs = np.load(exc.value.snapshot_path)
        for key, arr in before.items():
            assert np.all(np.isfinite(blobs[key]))
            assert np.array_equal(blobs[key], arr), key


class TestTrainDriver:
    def test_logs_and_checkpoints(self, corpus, tmp_path):
        cfg = tiny_config(log_interval=2, checkpoint_interval=2)
        result = train(cfg, corpus, tmp_path / "run")
        assert result.final_iteration == 4
        log = [json.loads(l) for l in result.log_path.read_text().splitlines()]
        assert [r["iteration"] for r in log] == [2, 4]
        assert all("heldout_stft" in r and "wall_time" in r for r in log)
        names = sorted(p.name for p in result.checkpoint_paths)
        assert names == ["checkpoint_00000002.npz", "checkpoint_00000004.npz"]

    def test_resume_in_same_directory_truncates_log(self, corpus, tmp_path):
        cfg = tiny_config(total_iterations=6, d_start_iteration=2, checkpoint_interval=2)
        full = train(cfg, corpus, tmp_path / "run")
        train(cfg, corpus, tmp_path / "run", resume_from=full.checkpoint_paths[0])
        log = [json.loads(l) for l in full.log_path.read_text().splitlines()]
        assert [r["iteration"] for r in log] == [1, 2, 3, 4, 5, 6]

    def test_resume_matches_uninterrupted(self, corpus, tmp_path):
        cfg = tiny_config(total_iterations=6, d_start_iteration=2, checkpoint_interval=3)
        full = train(cfg, corpus, tmp_path / "full")
        resumed = train(
            cfg,
            corpus,
            tmp_path / "resumed",
            resume_from=full.checkpoint_paths[0],
        )
        assert resumed.final_iteration == 6
        by_iter = {r["iteration"]: r for r in full.records}
        for rec in resumed.records:
            ref = by_iter[rec["iteration"]]
            for key in ("stft_loss", "g_loss", "d_loss"):
                if key in ref:
                    assert abs(rec[key] - ref[key]) <= 1e-12


def pwgan_float32_config(**overrides):
    base = dict(
        total_iterations=9,
        d_start_iteration=4,
        batch_size=1,
        segment_length=2048,
        dtype="float32",
        log_interval=1,
        checkpoint_interval=6,
    )
    base.update(overrides)
    return desk_config("pwgan", **base)


def _without_wall_time(records):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in records]


class TestFloat32Training:
    def test_resume_is_bit_exact(self, corpus, tmp_path):
        # the checkpoint at 6 comes after G's RAdam rectification (step 5)
        # and before D's (D steps from iteration 5), so the resumed run
        # crosses it
        cfg = pwgan_float32_config()
        full = train(cfg, corpus, tmp_path / "full")
        assert full.checkpoint_paths[0].name == "checkpoint_00000006.npz"
        resumed = train(cfg, corpus, tmp_path / "resumed", resume_from=full.checkpoint_paths[0])
        assert _without_wall_time(resumed.records) == _without_wall_time(full.records[6:])
        final_full = np.load(full.checkpoint_paths[-1])
        final_resumed = np.load(resumed.checkpoint_paths[-1])
        assert sorted(final_full.files) == sorted(final_resumed.files)
        for key in final_full.files:
            assert np.array_equal(final_full[key], final_resumed[key]), key

    def test_float64_moments_cast_on_load(self, corpus, tmp_path):
        cfg = pwgan_float32_config(d_start_iteration=2)
        tr = Trainer(cfg, corpus, tmp_path / "src")
        for _ in range(3):
            tr.step()
        path = save_checkpoint(tmp_path / "ck.npz", tr)
        blobs = dict(np.load(path, allow_pickle=False))
        moments = [k for k in blobs if k.startswith(("optg.", "optd."))]
        assert any(k.startswith("optd.") for k in moments)
        for key in moments:
            blobs[key] = blobs[key].astype(np.float64)
        np.savez(tmp_path / "f64.npz", **blobs)

        other = Trainer(cfg, corpus, tmp_path / "dst")
        load_checkpoint(tmp_path / "f64.npz", other)
        for _ in range(5):  # G to optimizer step 8, D to step 6
            other.step()
        assert other.d_state.step == 6
        for params in (other.g_params, other.d_params):
            assert {t.dtype for _, t in params.items()} == {np.dtype(np.float32)}
        for state in (other.g_state, other.d_state):
            for arr in (*state.m.values(), *state.v.values()):
                assert arr.dtype == np.float32


class TestCheckpointFiles:
    def test_save_is_atomic(self, corpus, tmp_path, monkeypatch):
        tr = Trainer(tiny_config(), corpus, tmp_path / "a")
        tr.step()
        ck_dir = tmp_path / "ck"
        ck_dir.mkdir()
        path = save_checkpoint(ck_dir / "ck.npz", tr)
        assert path == ck_dir / "ck.npz"
        assert sorted(p.name for p in ck_dir.iterdir()) == ["ck.npz"]
        other = Trainer(tiny_config(), corpus, tmp_path / "b")
        load_checkpoint(path, other)
        for name, arr in tr.g_params.state().items():
            assert np.array_equal(other.g_params[name].data, arr)

        # a save that fails part-way leaves the previous file whole
        before = path.read_bytes()
        tr.step()

        def fail(fh, **blobs):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, tr)
        assert path.read_bytes() == before
        assert sorted(p.name for p in ck_dir.iterdir()) == ["ck.npz"]

    def test_round_trip_restores_everything(self, corpus, tmp_path):
        tr = Trainer(tiny_config(), corpus, tmp_path / "src")
        for _ in range(3):
            tr.step()
        path = save_checkpoint(tmp_path / "ck.npz", tr)
        other = Trainer(tiny_config(), corpus, tmp_path / "dst")
        load_checkpoint(path, other)
        assert other.iteration == 3
        assert other.g_state.step == tr.g_state.step
        for name, arr in tr.g_params.state().items():
            assert np.array_equal(other.g_params[name].data, arr)
        assert other.rng.bit_generator.state == tr.rng.bit_generator.state

    def test_version_and_vocoder_guards(self, corpus, tmp_path):
        tr = Trainer(tiny_config(), corpus, tmp_path / "v")
        path = save_checkpoint(tmp_path / "ck.npz", tr)
        blobs = dict(np.load(path, allow_pickle=False))
        blobs["__version__"] = np.array(99)
        np.savez(tmp_path / "badver.npz", **blobs)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tmp_path / "badver.npz", tr)
        pw_cfg = desk_config("pwgan", batch_size=2, segment_length=2048, dtype="float64")
        pw = Trainer(pw_cfg, corpus, tmp_path / "pw")
        with pytest.raises(CheckpointError, match="vocoder"):
            load_checkpoint(path, pw)

    def test_unreadable_file_rejected(self, corpus, tmp_path):
        bad = tmp_path / "junk.npz"
        bad.write_bytes(b"garbage")
        tr = Trainer(tiny_config(), corpus, tmp_path / "u")
        with pytest.raises(CheckpointError):
            load_checkpoint(bad, tr)

    def test_load_generator_for_synthesis(self, corpus, tmp_path):
        tr = Trainer(tiny_config(), corpus, tmp_path / "lg")
        tr.step()
        path = save_checkpoint(tmp_path / "ck.npz", tr)
        vocoder = load_generator(path, dtype=np.float64)
        assert vocoder.kind == "melgan"
        assert (vocoder.fb.fmin, vocoder.fb.fmax) == (0.0, 11025.0)
        for name, arr in tr.g_params.state().items():
            assert np.array_equal(vocoder.params[name].data, arr)

    def test_load_generator_mel_range(self, corpus, tmp_path):
        tr = Trainer(tiny_config(mel_fmin=50.0, mel_fmax=8000.0), corpus, tmp_path / "mr")
        path = save_checkpoint(tmp_path / "ck.npz", tr)
        fb = load_generator(path).fb
        assert (fb.fmin, fb.fmax) == (50.0, 8000.0)
        # checkpoints written before the range was stored fall back to 0-11025 Hz
        blobs = dict(np.load(path, allow_pickle=False))
        del blobs["__mel_fmin__"], blobs["__mel_fmax__"]
        np.savez(tmp_path / "old.npz", **blobs)
        fb = load_generator(tmp_path / "old.npz").fb
        assert (fb.fmin, fb.fmax) == (0.0, 11025.0)

    @pytest.mark.parametrize("vocoder", ["melgan", "pwgan"])
    def test_loaded_generator_reproduces_heldout_loss(self, corpus, tmp_path, vocoder):
        cfg = desk_config(vocoder, total_iterations=3, d_start_iteration=2, batch_size=2,
                          segment_length=2048, mel_fmin=30.0, mel_fmax=9000.0)
        tr = Trainer(cfg, corpus, tmp_path / "hl")
        for _ in range(3):
            tr.step()
        path = save_checkpoint(tmp_path / "ck.npz", tr)
        expected, trained = tr.heldout_stft_loss(), tr.vocoder
        tr.vocoder = load_generator(path, dtype=np.float32)
        assert tr.vocoder.params is not trained.params
        assert np.array_equal(tr.vocoder.fb.weights, trained.fb.weights)
        assert tr.heldout_stft_loss() == expected
