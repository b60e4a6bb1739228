"""Alternating GAN training with a spectral-only warm start.

One discriminator step then one generator step per iteration once the
discriminator activates; before that the generator trains on the
multi-resolution STFT loss alone. Everything is deterministic given
(seed, config, corpus).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import losses, models
from . import tensor as tt
from .data import SAMPLE_RATE, sample_batch
from .dsp import StftConfig, mel_filterbank
from .losses import MultiStftConfig, PrlsConfig
from .tensor import Tape, Tensor
from .optim import OptimState, clip_global_norm, optimizer_step

CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes NaN/Inf; carries the diagnostic snapshot path."""

    def __init__(self, message, snapshot_path=None):
        super().__init__(message)
        self.snapshot_path = snapshot_path


class CheckpointError(ValueError):
    """Raised for unreadable or wrong-version checkpoint files."""


class CorpusError(ValueError):
    """Raised for a corpus the trainer cannot use: clips not at SAMPLE_RATE."""


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    grad_clip: float | None = None


@dataclass(frozen=True)
class TrainConfig:
    vocoder: str = "melgan"  # "melgan" | "pwgan"
    total_iterations: int = 3000
    d_start_iteration: int = 2000
    batch_size: int = 8
    segment_length: int = 4096
    adv_mode: str = "prls"  # "prls" | "lsgan": prls with zero relativistic weights
    g_optimizer: OptimizerConfig = OptimizerConfig("adam", 1e-3, (0.9, 0.999), None)
    d_optimizer: OptimizerConfig = OptimizerConfig("adam", 1e-3, (0.9, 0.999), 1.0)
    g_lr_halvings: tuple = ()
    d_lr_halvings: tuple = ()
    prls: PrlsConfig = PrlsConfig()
    stft: MultiStftConfig = MultiStftConfig()
    n_mels: int = 80
    mel_fmin: float = 0.0
    mel_fmax: float = 11025.0
    seed: int = 0
    dtype: str = "float32"
    log_interval: int = 10
    checkpoint_interval: int = 1000

    def __post_init__(self):
        if self.vocoder not in ("melgan", "pwgan"):
            raise ValueError(f"unknown vocoder kind {self.vocoder!r}")
        if self.adv_mode not in ("prls", "lsgan"):
            raise ValueError(f"unknown adv_mode {self.adv_mode!r}")
        if self.d_start_iteration > self.total_iterations:
            raise ValueError("d_start_iteration must not exceed total_iterations")
        if self.g_optimizer.lr <= 0 or self.d_optimizer.lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.segment_length % 256:
            raise ValueError("segment_length must be divisible by 256")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.log_interval < 1:
            raise ValueError("log_interval must be at least 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, not {self.dtype!r}")
        shortest = max(
            max(c.win_length for c in self.stft.configs),
            build_specs(self)[1].receptive_field(),
        )
        if self.segment_length < shortest:
            raise ValueError(
                f"segment_length must be at least {shortest}, the longest STFT window "
                "or the discriminator's receptive field"
            )


def desk_config(vocoder="melgan", **overrides):
    """Desk-scale defaults; the full-scale published settings stay reachable
    through overrides (iterations, batch, segment length, schedules)."""
    if vocoder == "melgan":
        cfg = TrainConfig(
            vocoder="melgan",
            g_optimizer=OptimizerConfig("adam", 1e-3, (0.9, 0.999), None),
            d_optimizer=OptimizerConfig("adam", 1e-3, (0.9, 0.999), 1.0),
        )
    elif vocoder == "pwgan":
        cfg = TrainConfig(
            vocoder="pwgan",
            g_optimizer=OptimizerConfig("radam", 1e-4, (0.9, 0.999), 10.0),
            d_optimizer=OptimizerConfig("radam", 1e-4, (0.9, 0.999), 1.0),
        )
    else:
        raise ValueError(f"unknown vocoder kind {vocoder!r}")
    return replace(cfg, **overrides) if overrides else cfg


def build_specs(config: TrainConfig):
    if config.vocoder == "melgan":
        g_spec = models.MelganGeneratorSpec(n_mels=config.n_mels)
        d_spec = models.DiscriminatorSpec(kind="melgan_multiscale")
    else:
        g_spec = models.PwganGeneratorSpec(n_mels=config.n_mels)
        d_spec = models.DiscriminatorSpec(kind="pwgan_single")
    return g_spec, d_spec


def conditioning_config():
    """Feature analysis for generator conditioning: 1024-point FFT, hop 256."""
    return StftConfig(fft_size=1024, win_length=1024, hop=256)


def _lr_at(base, halvings, iteration):
    return base * 0.5 ** sum(1 for h in halvings if iteration >= h)


def _squeeze_wav(x):
    return tt.reshape(x, (x.shape[0], x.shape[2]))


@dataclass
class TrainResult:
    log_path: Path
    checkpoint_paths: list = field(default_factory=list)
    final_iteration: int = 0
    records: list = field(default_factory=list)


class Trainer:
    def __init__(self, config: TrainConfig, corpus, out_dir):
        rates = sorted({clip.sample_rate for clip in corpus.clips} - {SAMPLE_RATE})
        if rates:
            raise CorpusError(
                f"corpus clips at {', '.join(map(str, rates))} Hz; "
                f"training needs {SAMPLE_RATE} Hz (the mel filterbank's rate)"
            )
        self.config = config
        self.corpus = corpus
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.dtype = np.dtype(config.dtype)
        self.g_spec, self.d_spec = build_specs(config)
        self.fb = mel_filterbank(
            config.n_mels, SAMPLE_RATE, config.mel_fmin, config.mel_fmax, fft_size=1024
        )
        self.cond_cfg = conditioning_config()
        self.adv_weights = config.prls
        if config.adv_mode == "lsgan":
            self.adv_weights = replace(config.prls, lambda_rls=0.0, lambda_topk=0.0)
        self.g_params = models.init_params(self.g_spec, config.seed + 1, self.dtype)
        self.d_params = models.init_params(self.d_spec, config.seed + 2, self.dtype)
        self.g_state = OptimState(config.g_optimizer.kind)
        self.d_state = OptimState(config.d_optimizer.kind)
        self.rng = np.random.default_rng(config.seed)
        self.iteration = 0
        self._heldout = self._make_heldout()

    def _make_heldout(self):
        rng = np.random.default_rng(self.config.seed + 3)
        batch = sample_batch(
            self.corpus.test_clips,
            self.config.segment_length,
            self.config.batch_size,
            rng,
            self.fb,
            self.cond_cfg,
            self.dtype,
        )
        noise = None
        if self.config.vocoder == "pwgan":
            noise = tt.randn(rng, batch.wav.shape, self.dtype)
        return batch, noise

    def _generate(self, batch, noise):
        if self.config.vocoder == "melgan":
            return models.melgan_generate(batch.mel, self.g_spec, self.g_params)
        return models.pwgan_generate(noise, batch.mel, self.g_spec, self.g_params)

    def heldout_stft_loss(self):
        batch, noise = self._heldout
        x_hat = self._generate(batch, noise)
        loss = losses.multi_resolution_stft(
            _squeeze_wav(batch.wav), _squeeze_wav(x_hat), self.config.stft
        )
        return loss.item()

    def _grads_by_name(self, grad_map, params):
        return {
            name: grad_map[t].data for name, t in params.items() if t in grad_map
        }

    def _apply(self, net, grads, batch):
        """Clip and apply the gradients of net "g" or "d"; returns their norm,
        checked first so a divergence snapshot holds the last finite weights."""
        cfg = self.config
        params, opt_cfg, state, halvings = {
            "g": (self.g_params, cfg.g_optimizer, self.g_state, cfg.g_lr_halvings),
            "d": (self.d_params, cfg.d_optimizer, self.d_state, cfg.d_lr_halvings),
        }[net]
        grads, norm = clip_global_norm(grads, opt_cfg.grad_clip)
        self._check_finite(norm, f"{net.upper()} gradient norm", batch)
        lr = _lr_at(opt_cfg.lr, halvings, self.iteration)
        optimizer_step(opt_cfg.kind, params, grads, state, lr, opt_cfg.betas)
        return norm

    def _check_finite(self, value, what, batch):
        if np.isfinite(value):
            return
        path = self.out_dir / "diverged_snapshot.npz"
        blobs = {f"g.{n}": a for n, a in self.g_params.state().items()}
        blobs.update({f"d.{n}": a for n, a in self.d_params.state().items()})
        blobs["batch_wav"] = batch.wav.data
        np.savez(path, **blobs)
        raise TrainingDiverged(
            f"{what} became non-finite at iteration {self.iteration}; snapshot at {path}",
            snapshot_path=path,
        )

    def step(self):
        """One training iteration; returns the log record."""
        cfg = self.config
        self.iteration += 1
        it = self.iteration
        batch = sample_batch(
            self.corpus.train_clips,
            cfg.segment_length,
            cfg.batch_size,
            self.rng,
            self.fb,
            self.cond_cfg,
            self.dtype,
        )
        noise = None
        if cfg.vocoder == "pwgan":
            noise = tt.randn(self.rng, batch.wav.shape, self.dtype)

        tape_g = Tape()
        self.g_params.attach(tape_g)
        x_hat = self._generate(batch, noise)
        real_flat = _squeeze_wav(batch.wav)
        stft_loss = losses.multi_resolution_stft(real_flat, _squeeze_wav(x_hat), cfg.stft)

        record = {
            "iteration": it,
            "phase": "pretrain" if it <= cfg.d_start_iteration else "adversarial",
            "stft_loss": stft_loss.item(),
        }
        self._check_finite(record["stft_loss"], "stft loss", batch)

        if it <= cfg.d_start_iteration:
            grads = self._grads_by_name(tt.backward(stft_loss, tape_g), self.g_params)
            self.g_params.detach()
            record["g_loss"] = record["stft_loss"]
            record["g_grad_norm"] = self._apply("g", grads, batch)
        else:
            # discriminator step on the frozen generator output
            x_hat_const = Tensor(x_hat.data)
            tape_d = Tape()
            self.d_params.attach(tape_d)
            real_scores = models.discriminate(batch.wav, self.d_spec, self.d_params)
            fake_scores = models.discriminate(x_hat_const, self.d_spec, self.d_params)
            d_loss = losses.prls_d_total(real_scores, fake_scores, self.adv_weights)
            record["d_loss"] = d_loss.item()
            self._check_finite(record["d_loss"], "discriminator loss", batch)
            d_grads = self._grads_by_name(tt.backward(d_loss, tape_d), self.d_params)
            self.d_params.detach()
            record["d_grad_norm"] = self._apply("d", d_grads, batch)

            # generator step against the updated discriminator; D weights are
            # frozen here so backward skips their (unused) gradients
            self.d_params.set_requires_grad(False)
            fake_for_g = models.discriminate(x_hat, self.d_spec, self.d_params)
            real_const = models.discriminate(batch.wav, self.d_spec, self.d_params)
            g_loss = stft_loss + losses.prls_adv_total(fake_for_g, real_const, self.adv_weights)
            record["g_loss"] = g_loss.item()
            self._check_finite(record["g_loss"], "generator loss", batch)
            g_grads = self._grads_by_name(tt.backward(g_loss, tape_g), self.g_params)
            self.g_params.detach()
            self.d_params.set_requires_grad(True)
            record["g_grad_norm"] = self._apply("g", g_grads, batch)
            record["mean_real_score"] = float(np.mean([m.data.mean() for m in real_const]))
        return record


def train(config: TrainConfig, corpus, out_dir, resume_from=None):
    """Run (or resume) the full schedule; returns paths to logs/checkpoints."""
    trainer = Trainer(config, corpus, out_dir)
    out_dir = trainer.out_dir
    log_path = out_dir / "train_log.jsonl"
    kept = []
    if resume_from is not None:
        load_checkpoint(resume_from, trainer)
        if log_path.exists():
            # drop records past the checkpoint; the resumed run writes them again
            lines = log_path.read_text().splitlines(keepends=True)
            kept = [l for l in lines if json.loads(l)["iteration"] <= trainer.iteration]
    log_file = open(log_path, "w")
    log_file.writelines(kept)
    result = TrainResult(log_path=log_path)
    start = time.monotonic()
    try:
        while trainer.iteration < config.total_iterations:
            record = trainer.step()
            it = trainer.iteration
            if it % config.log_interval == 0 or it == config.total_iterations:
                record["heldout_stft"] = trainer.heldout_stft_loss()
                record["wall_time"] = time.monotonic() - start
                log_file.write(json.dumps(record) + "\n")
                log_file.flush()
                result.records.append(record)
            if config.checkpoint_interval and (
                it % config.checkpoint_interval == 0 or it == config.total_iterations
            ):
                path = out_dir / f"checkpoint_{it:08d}.npz"
                save_checkpoint(path, trainer)
                result.checkpoint_paths.append(path)
        result.final_iteration = trainer.iteration
    finally:
        log_file.close()
    return result


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, trainer: Trainer):
    """Single-file checkpoint: versioned, name-keyed arrays with shapes.

    Written to a temporary file in the same directory and renamed into
    place, so `path` never holds a partial checkpoint.
    """
    blobs = {
        "__version__": np.array(CHECKPOINT_VERSION),
        "__iteration__": np.array(trainer.iteration),
        "__vocoder__": np.array(trainer.config.vocoder),
        "__n_mels__": np.array(trainer.config.n_mels),
        "__mel_fmin__": np.array(trainer.config.mel_fmin),
        "__mel_fmax__": np.array(trainer.config.mel_fmax),
        "__rng__": np.array(json.dumps(trainer.rng.bit_generator.state)),
        "__g_step__": np.array(trainer.g_state.step),
        "__d_step__": np.array(trainer.d_state.step),
    }
    for prefix, params in (("g", trainer.g_params), ("d", trainer.d_params)):
        for name, arr in params.state().items():
            blobs[f"{prefix}.{name}"] = arr
    for prefix, state in (("optg", trainer.g_state), ("optd", trainer.d_state)):
        for name, arr in state.m.items():
            blobs[f"{prefix}.m.{name}"] = arr
        for name, arr in state.v.items():
            blobs[f"{prefix}.v.{name}"] = arr
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # a file handle, because np.savez appends ".npz" to a bare path
        with open(tmp, "wb") as fh:
            np.savez(fh, **blobs)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _read_checkpoint(path):
    """All arrays of a checkpoint file, once it is readable and of our version."""
    try:
        blobs = dict(np.load(path, allow_pickle=False))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    if "__version__" not in blobs or int(blobs["__version__"]) != CHECKPOINT_VERSION:
        found = blobs.get("__version__")
        raise CheckpointError(
            f"{path}: checkpoint version {found} unsupported (expected {CHECKPOINT_VERSION})"
        )
    return blobs


def load_checkpoint(path, trainer: Trainer):
    """Restore parameters, optimizer moments, iteration, and the RNG stream.

    Parameters and moments are cast to the trainer's dtype, so a checkpoint
    written in another dtype resumes without promoting the update.
    """
    blobs = _read_checkpoint(path)
    vocoder = str(blobs["__vocoder__"])
    if vocoder != trainer.config.vocoder:
        raise CheckpointError(
            f"{path}: checkpoint is for vocoder {vocoder!r}, config says {trainer.config.vocoder!r}"
        )
    trainer.iteration = int(blobs["__iteration__"])
    trainer.rng.bit_generator.state = json.loads(str(blobs["__rng__"]))
    trainer.g_state.step = int(blobs["__g_step__"])
    trainer.d_state.step = int(blobs["__d_step__"])
    for prefix, params in (("g", trainer.g_params), ("d", trainer.d_params)):
        state = {
            name: blobs[f"{prefix}.{name}"]
            for name in params.names()
            if f"{prefix}.{name}" in blobs
        }
        params.load(state)
    for prefix, state in (("optg", trainer.g_state), ("optd", trainer.d_state)):
        for key, arr in blobs.items():
            if key.startswith(f"{prefix}.m."):
                state.m[key[len(prefix) + 3 :]] = arr.astype(trainer.dtype, copy=False)
            elif key.startswith(f"{prefix}.v."):
                state.v[key[len(prefix) + 3 :]] = arr.astype(trainer.dtype, copy=False)
    return trainer


def load_generator(path, dtype=np.float32):
    """Load just the generator from a checkpoint, for synthesis.

    Returns (vocoder kind, generator spec, ParameterSet, (mel_fmin, mel_fmax));
    checkpoints without a stored mel range get the default 0-11025 Hz.
    """
    blobs = _read_checkpoint(path)
    vocoder = str(blobs["__vocoder__"])
    n_mels = int(blobs.get("__n_mels__", 80))
    mel_range = (float(blobs.get("__mel_fmin__", 0.0)), float(blobs.get("__mel_fmax__", 11025.0)))
    if vocoder == "melgan":
        spec = models.MelganGeneratorSpec(n_mels=n_mels)
    elif vocoder == "pwgan":
        spec = models.PwganGeneratorSpec(n_mels=n_mels)
    else:
        raise CheckpointError(f"{path}: unknown vocoder kind {vocoder!r}")
    params = models.init_params(spec, 0, dtype)
    try:
        params.load({name: blobs[f"g.{name}"] for name in params.names()})
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint does not match the model ({exc})") from exc
    return vocoder, spec, params, mel_range
