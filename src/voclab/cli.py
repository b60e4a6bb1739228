"""Command-line entry points: make-data, train, synth, eval, gradcheck.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import models
from . import tensor as tt
from .config import ConfigError, default_config_text, parse_config
from .data import AudioClip, load_corpus, read_wav, save_corpus, synth_corpus, write_wav
from .dsp import mel_filterbank
from .gradcheck import LOSS_CHECKS, MODEL_CHECKS, run_suite
from .metrics import evaluate_corpus
from .tensor import Tensor
from .trainer import (
    TrainingDiverged,
    CheckpointError,
    CorpusError,
    conditioning_config,
    load_generator,
    train,
)

EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


@click.group()
def main():
    """Desk-scale GAN vocoder laboratory."""


@main.command("make-data")
@click.option("--seed", default=0, show_default=True, help="corpus generation seed")
@click.option("--out", required=True, type=click.Path(), help="output directory")
@click.option("--clips", default=72, show_default=True, help="number of clips")
@click.option("--seconds", default=2.0, show_default=True, help="duration per clip")
def make_data(seed, out, clips, seconds):
    """Generate the deterministic synthetic corpus (WAVs + manifest)."""
    try:
        corpus = synth_corpus(seed, n_clips=clips, duration_s=seconds)
        save_corpus(corpus, out)
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(f"wrote {clips} clips to {out}")


@main.command("init-config")
@click.option("--vocoder", default="melgan", show_default=True)
@click.option("--out", required=True, type=click.Path())
def init_config(vocoder, out):
    """Write a fully documented default config file."""
    try:
        Path(out).write_text(default_config_text(vocoder))
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(f"wrote {out}")


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--prls", type=click.Choice(["on", "off"]), default=None,
              help="override the adversarial mode from the config")
@click.option("--resume", type=click.Path(exists=True), default=None,
              help="checkpoint to resume from")
def train_cmd(config_path, out, prls, resume):
    """Train per the config; emits checkpoints and a JSONL metrics log."""
    try:
        cfg, corpus_dir = parse_config(config_path)
        if prls is not None:
            cfg = replace(cfg, adv_mode="prls" if prls == "on" else "lsgan")
        if corpus_dir is None:
            raise ConfigError("[data] corpus_dir is required for training")
        corpus = load_corpus(corpus_dir)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    try:
        result = train(cfg, corpus, out, resume_from=resume)
    except (CheckpointError, CorpusError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except TrainingDiverged as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        if exc.snapshot_path:
            click.echo(f"snapshot: {exc.snapshot_path}", err=True)
        sys.exit(EXIT_NUMERICAL)
    click.echo(
        f"finished at iteration {result.final_iteration}; log: {result.log_path}"
    )


@main.command("synth")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--mel-from", "mel_from", required=True, type=click.Path(exists=True),
              help="directory of reference WAVs to copy-synthesize")
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, help="noise seed (pwgan only)")
def synth(checkpoint, mel_from, out, seed):
    """Copy-synthesis: extract mel from WAVs, run the generator, write WAVs."""
    try:
        vocoder, spec, params, (fmin, fmax) = load_generator(checkpoint)
        paths = sorted(Path(mel_from).glob("*.wav"))
        if not paths:
            raise FileNotFoundError(f"no .wav files in {mel_from}")
    except (CheckpointError, FileNotFoundError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fb = mel_filterbank(spec.n_mels, 22050, fmin, fmax, fft_size=1024)
    cond_cfg = conditioning_config()
    rng = np.random.default_rng(seed)
    for path in paths:
        clip = read_wav(path)
        n = (len(clip) // 256) * 256
        if n < cond_cfg.win_length:
            click.echo(f"skipping {path.name}: too short", err=True)
            continue
        x = clip.samples[:n].astype(np.float32)
        from .dsp import aligned_mel_spectrogram

        mel = aligned_mel_spectrogram(Tensor(x), fb, cond_cfg)
        mel = tt.reshape(mel, (1,) + mel.shape)
        if vocoder == "melgan":
            wav = models.melgan_generate(mel, spec, params)
        else:
            noise = tt.randn(rng, (1, 1, n), np.float32)
            wav = models.pwgan_generate(noise, mel, spec, params)
        samples = np.clip(wav.data[0, 0], -1.0, 1.0)
        if not np.all(np.isfinite(samples)):
            click.echo(f"numerical failure: non-finite output for {path.name}", err=True)
            sys.exit(EXIT_NUMERICAL)
        write_wav(out_dir / path.name, AudioClip(samples, clip.sample_rate, id=path.stem))
    click.echo(f"wrote {len(paths)} files to {out_dir}")


@main.command("eval")
@click.option("--ref", required=True, type=click.Path(exists=True))
@click.option("--syn", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(),
              help="report base path (writes .json and .csv)")
def eval_cmd(ref, syn, out):
    """Mel-cepstral distortion and f0 frame error between paired directories."""
    report = evaluate_corpus(ref, syn)
    if not report.pairs:
        click.echo("error: no paired files", err=True)
        sys.exit(EXIT_VALIDATION)
    report.write(out)
    for stem in report.unmatched:
        click.echo(f"unmatched: {stem}", err=True)
    click.echo(
        f"{len(report.pairs)} pairs: MCD {report.mcd_mean:.3f} dB, FFE {report.ffe_mean:.3f}"
    )


@main.command("gradcheck")
@click.option("--which", default="all", show_default=True,
              help="all or one of: " + ", ".join(LOSS_CHECKS + MODEL_CHECKS))
@click.option("--seed", default=0, show_default=True)
def gradcheck_cmd(which, seed):
    """Finite-difference checks across registered losses and models."""
    try:
        reports = run_suite(which, seed=seed)
    except KeyError as exc:
        click.echo(f"error: {exc.args[0]}", err=True)
        sys.exit(EXIT_VALIDATION)
    failed = False
    for name, report in reports.items():
        status = "ok" if report.passed else "FAIL"
        click.echo(f"{name:28s} max rel err {report.max_rel_err:.3e}  {status}")
        failed = failed or not report.passed
    if failed:
        sys.exit(EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
