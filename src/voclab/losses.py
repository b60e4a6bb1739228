"""Adversarial and spectral training objectives.

One adversarial objective, the pointwise relativistic least-squares loss:
the LSGAN terms plus a relativistic mean and a top-K discrepancy term. With
the relativistic weights at zero it is plain LSGAN. Multi-resolution STFT
auxiliaries complete the generator loss. Score maps are per-position
discriminator outputs [B, T], one per discriminator scale; real and fake
maps must pair pointwise, so their shapes must match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensor as tt
from .dsp import StftConfig, stft_magnitude
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class PrlsConfig:
    """Weights of the pointwise relativistic objective."""

    lambda_rls: float = 0.4
    margin: float = 1.0
    lambda_adv: float = 4.0
    lambda_topk: float = 0.01
    k_fraction: float = 0.10

    def __post_init__(self):
        if min(self.lambda_rls, self.lambda_adv, self.lambda_topk) < 0:
            raise ValueError("loss weights must be >= 0")
        if not 0 < self.k_fraction <= 1:
            raise ValueError(f"k_fraction must be in (0, 1], got {self.k_fraction}")


@dataclass(frozen=True)
class MultiStftConfig:
    configs: tuple = (
        StftConfig(fft_size=512, win_length=240, hop=50),
        StftConfig(fft_size=1024, win_length=600, hop=120),
        StftConfig(fft_size=2048, win_length=1200, hop=240),
    )

    def __post_init__(self):
        if not self.configs:
            raise ValueError("need at least one STFT resolution")


def _check_map(scores, name):
    if not isinstance(scores, Tensor):
        raise TypeError(f"{name}: expected a Tensor score map")
    if scores.data.size == 0:
        raise ShapeError(f"{name}: empty score map")


def _check_pair(real, fake, name):
    _check_map(real, name)
    _check_map(fake, name)
    if real.shape != fake.shape:
        raise ShapeError(f"{name}: real {real.shape} and fake {fake.shape} must pair pointwise")


def _as_list(maps):
    return list(maps) if isinstance(maps, (list, tuple)) else [maps]


# ---------------------------------------------------------------------------
# least-squares terms


def lsgan_adv_loss(fake_scores):
    """Generator objective: mean (1 - D(G(z)))^2."""
    _check_map(fake_scores, "lsgan_adv_loss")
    return tt.mean(tt.square(1.0 - fake_scores))


def lsgan_d_loss(real_scores, fake_scores):
    """Discriminator objective: mean (1 - D(x))^2 + mean D(G(z))^2."""
    _check_pair(real_scores, fake_scores, "lsgan_d_loss")
    return tt.mean(tt.square(1.0 - real_scores)) + tt.mean(tt.square(fake_scores))


# ---------------------------------------------------------------------------
# spectral losses

LOG_MAG_FLOOR = 1e-7


def _spectral_convergence(ref, est):
    denom = tt.frobenius_norm(ref)
    if denom.item() == 0.0:
        raise ValueError("spectral_convergence: reference signal has zero spectral energy")
    return tt.div(tt.frobenius_norm(ref - est), denom)


def _log_stft_magnitude(ref, est):
    log_ref = tt.log(tt.clamp_min(ref, LOG_MAG_FLOOR))
    log_est = tt.log(tt.clamp_min(est, LOG_MAG_FLOOR))
    return tt.mean(tt.absval(log_ref - log_est))


def spectral_convergence(x, x_hat, cfg: StftConfig):
    """Frobenius distance of magnitudes, normalized by the reference norm."""
    return _spectral_convergence(stft_magnitude(x, cfg), stft_magnitude(x_hat, cfg))


def log_stft_magnitude(x, x_hat, cfg: StftConfig):
    """Mean absolute difference of log magnitudes, floored at 1e-7."""
    return _log_stft_magnitude(stft_magnitude(x, cfg), stft_magnitude(x_hat, cfg))


def multi_resolution_stft(x, x_hat, cfg: MultiStftConfig):
    """Average over resolutions of spectral convergence + log magnitude.

    Each resolution computes the magnitudes of x and x_hat once and feeds
    both terms from them.
    """
    total = None
    for c in cfg.configs:
        ref, est = stft_magnitude(x, c), stft_magnitude(x_hat, c)
        term = _spectral_convergence(ref, est) + _log_stft_magnitude(ref, est)
        total = term if total is None else total + term
    return total * (1.0 / len(cfg.configs))


# ---------------------------------------------------------------------------
# pointwise relativistic terms


def pointwise_relativistic_d(real, fake, margin):
    """Per-position (D(x) - D(G(z)) - m)^2, unreduced."""
    _check_pair(real, fake, "pointwise_relativistic_d")
    return tt.square(real - fake - margin)


def pointwise_relativistic_g(fake, real, margin):
    """Per-position (D(G(z)) - D(x) - m)^2, unreduced."""
    _check_pair(real, fake, "pointwise_relativistic_g")
    return tt.square(fake - real - margin)


def topk_mean(per_position, k_fraction):
    """Mean of the K largest per-position values, K = ceil(k_fraction * T).

    Selection is per example over its own score sequence (last axis), then
    averaged over the batch.
    """
    _check_map(per_position, "topk_mean")
    if not 0 < k_fraction <= 1:
        raise ValueError(f"k_fraction must be in (0, 1], got {k_fraction}")
    n = per_position.shape[-1]
    k = math.ceil(k_fraction * n)
    if k == n:
        # selection keeps everything; plain mean preserves summation order
        # so this case is bit-exact against an unsorted mean
        return tt.mean(per_position)
    return tt.mean(tt.topk_values(per_position, k))


def _add_relativistic(term, rel, cfg: PrlsConfig):
    """term + lambda_rls * mean(rel) + lambda_topk * topk_mean(rel), skipping
    a zero weight's term, so zero weights leave plain LSGAN bit for bit and
    need no relativistic map (rel may then be None)."""
    if cfg.lambda_rls:
        term = term + cfg.lambda_rls * tt.mean(rel)
    if cfg.lambda_topk:
        term = term + cfg.lambda_topk * topk_mean(rel, cfg.k_fraction)
    return term


def prls_d_total(real, fake, cfg: PrlsConfig):
    """Discriminator loss: LSGAN terms + relativistic mean + top-K emphasis.

    Multi-scale inputs are computed per scale (each with its own score
    length) and summed across scales.
    """
    reals, fakes = _as_list(real), _as_list(fake)
    if len(reals) != len(fakes):
        raise ShapeError("prls_d_total: scale count mismatch")
    relativistic = cfg.lambda_rls or cfg.lambda_topk
    total = None
    for r, f in zip(reals, fakes):
        rel = pointwise_relativistic_d(r, f, cfg.margin) if relativistic else None
        term = _add_relativistic(lsgan_d_loss(r, f), rel, cfg)
        total = term if total is None else total + term
    return total


def prls_adv_total(fake, real, cfg: PrlsConfig):
    """Generator adversarial loss: weighted LSGAN + relativistic + top-K.

    The margin pushes fake scores above real scores, mirrored from the
    discriminator side. The spectral loss is added by the caller.
    """
    reals, fakes = _as_list(real), _as_list(fake)
    if len(reals) != len(fakes):
        raise ShapeError("prls_adv_total: scale count mismatch")
    relativistic = cfg.lambda_rls or cfg.lambda_topk
    total = None
    for r, f in zip(reals, fakes):
        rel = pointwise_relativistic_g(f, r, cfg.margin) if relativistic else None
        term = _add_relativistic(cfg.lambda_adv * lsgan_adv_loss(f), rel, cfg)
        total = term if total is None else total + term
    return total
