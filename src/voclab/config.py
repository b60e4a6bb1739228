"""Run configuration files: flat INI-style key = value text.

Unknown sections or keys are hard errors so typos never pass silently.
Every key has a documented default; empty optimizer fields fall back to the
per-vocoder defaults (Adam for melgan, rectified Adam for pwgan).
"""

from __future__ import annotations

import configparser
from dataclasses import replace
from pathlib import Path

from .losses import PrlsConfig
from .trainer import OptimizerConfig, TrainConfig, desk_config


class ConfigError(ValueError):
    """Raised with every validation problem collected, one per line."""


def _float_or_none(s):
    s = s.strip()
    return None if s in ("", "none") else float(s)


def _clip_value(s):
    """'' or 'default' -> per-vocoder default; 'none' -> no clipping; else a number."""
    s = s.strip().lower()
    if s in ("", "default"):
        return "default"
    if s == "none":
        return None
    return float(s)


def _int_tuple(s):
    s = s.strip()
    return tuple(int(v) for v in s.split(",")) if s else ()


# section -> key -> (parser, default-as-text, doc)
SCHEMA = {
    "data": {
        "corpus_dir": (str, "", "directory of training WAVs (from make-data)"),
        "segment_length": (int, "4096", "training segment samples, multiple of 256"),
        "batch_size": (int, "8", "segments per training step"),
    },
    "model": {
        "vocoder": (str, "melgan", "melgan | pwgan"),
        "n_mels": (int, "80", "mel bands for conditioning"),
        "mel_fmin": (float, "0", "mel filterbank lower edge, Hz"),
        "mel_fmax": (float, "11025", "mel filterbank upper edge, Hz"),
    },
    "losses": {
        "adv_mode": (str, "prls", "prls | lsgan (baseline: lambda_rls and lambda_topk set to 0)"),
        "lambda_rls": (float, "0.4", "weight of the pointwise relativistic term"),
        "margin": (float, "1.0", "score margin m"),
        "lambda_adv": (float, "4.0", "weight of the least-squares adversarial term, both modes"),
        "lambda_topk": (float, "0.01", "weight of the top-K discrepancy term"),
        "k_fraction": (float, "0.1", "fraction of score positions kept by top-K"),
    },
    "trainer": {
        "total_iterations": (int, "3000", "training steps in total"),
        "d_start_iteration": (int, "2000", "warm-start length; D is frozen before this"),
        "g_optimizer": (str, "", "adam | radam (empty: per-vocoder default)"),
        "g_lr": (_float_or_none, "", "generator learning rate (empty: default)"),
        "g_grad_clip": (_clip_value, "", "G clip: empty=vocoder default, none=off, or a number"),
        "d_optimizer": (str, "", "adam | radam (empty: per-vocoder default)"),
        "d_lr": (_float_or_none, "", "discriminator learning rate (empty: default)"),
        "d_grad_clip": (_clip_value, "", "D clip: empty=vocoder default, none=off, or a number"),
        "g_lr_halvings": (_int_tuple, "", "iterations at which G lr halves, comma-separated"),
        "d_lr_halvings": (_int_tuple, "", "iterations at which D lr halves, comma-separated"),
        "seed": (int, "0", "master seed for data, init, and noise"),
        "dtype": (str, "float32", "float32 (training) | float64 (verification)"),
        "log_interval": (int, "10", "iterations between JSONL log records"),
        "checkpoint_interval": (int, "1000", "iterations between checkpoints"),
    },
    "metrics": {},  # reserved; evaluation has no tunables yet
}


def default_config_text(vocoder="melgan"):
    """A fully commented config reproducing the desk-scale acceptance runs."""
    lines = [f"# voclab run configuration (defaults for vocoder = {vocoder})"]
    for section, keys in SCHEMA.items():
        lines.append(f"\n[{section}]")
        for key, (_, default, doc) in keys.items():
            if key == "vocoder":
                default = vocoder
            lines.append(f"# {doc}")
            lines.append(f"{key} = {default}")
    return "\n".join(lines) + "\n"


def parse_config(path):
    """Parse and validate a config file into a TrainConfig (+ corpus dir)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    problems = []
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                problems.append(f"unknown key {key!r} in section [{section}]")
                continue
            conv = SCHEMA[section][key][0]
            try:
                values[(section, key)] = conv(raw)
            except ValueError:
                problems.append(f"[{section}] {key}: cannot parse {raw!r}")
    if problems:
        raise ConfigError("\n".join(problems))

    def get(section, key, fallback=None):
        return values.get((section, key), fallback)

    vocoder = get("model", "vocoder", "melgan")
    try:
        cfg = desk_config(vocoder)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def opt(which, base: OptimizerConfig):
        kind = get("trainer", f"{which}_optimizer") or base.kind
        lr = get("trainer", f"{which}_lr")
        clip = get("trainer", f"{which}_grad_clip", "default")
        return OptimizerConfig(
            kind=kind,
            lr=base.lr if lr is None else lr,
            betas=base.betas,
            grad_clip=base.grad_clip if clip == "default" else clip,
        )

    prls = PrlsConfig(
        lambda_rls=get("losses", "lambda_rls", 0.4),
        margin=get("losses", "margin", 1.0),
        lambda_adv=get("losses", "lambda_adv", 4.0),
        lambda_topk=get("losses", "lambda_topk", 0.01),
        k_fraction=get("losses", "k_fraction", 0.1),
    )
    try:
        cfg = replace(
            cfg,
            total_iterations=get("trainer", "total_iterations", cfg.total_iterations),
            d_start_iteration=get("trainer", "d_start_iteration", cfg.d_start_iteration),
            batch_size=get("data", "batch_size", cfg.batch_size),
            segment_length=get("data", "segment_length", cfg.segment_length),
            adv_mode=get("losses", "adv_mode", cfg.adv_mode),
            g_optimizer=opt("g", cfg.g_optimizer),
            d_optimizer=opt("d", cfg.d_optimizer),
            g_lr_halvings=get("trainer", "g_lr_halvings", ()),
            d_lr_halvings=get("trainer", "d_lr_halvings", ()),
            prls=prls,
            n_mels=get("model", "n_mels", cfg.n_mels),
            mel_fmin=get("model", "mel_fmin", cfg.mel_fmin),
            mel_fmax=get("model", "mel_fmax", cfg.mel_fmax),
            seed=get("trainer", "seed", cfg.seed),
            dtype=get("trainer", "dtype", cfg.dtype),
            log_interval=get("trainer", "log_interval", cfg.log_interval),
            checkpoint_interval=get("trainer", "checkpoint_interval", cfg.checkpoint_interval),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    corpus_dir = get("data", "corpus_dir", "")
    return cfg, Path(corpus_dir) if corpus_dir else None
