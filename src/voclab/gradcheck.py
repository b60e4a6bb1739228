"""Finite-difference gradient suite over every registered loss and model.

Each entry builds a scalar function of one input tensor, jittered away from
top-K ties and activation kinks, and compares reverse-mode gradients against
central differences in 64-bit. Shared by the CLI and the test suite.
"""

from __future__ import annotations

import numpy as np

from . import losses, models
from . import tensor as tt
from .dsp import StftConfig
from .losses import MultiStftConfig, PrlsConfig
from .tensor import Tensor, grad_check

_SMALL_STFT = MultiStftConfig(
    configs=(
        StftConfig(fft_size=64, win_length=32, hop=16),
        StftConfig(fft_size=128, win_length=64, hop=32),
    )
)


def _jittered_scores(rng, shape):
    # distinct values keep top-K selection away from ties
    flat = rng.normal(0.0, 1.0, np.prod(shape)) + 1e-3 * np.arange(np.prod(shape))
    return flat.reshape(shape)


def _score_pair(rng, shape=(2, 12)):
    return _jittered_scores(rng, shape), _jittered_scores(rng, shape)


def check_loss(name, seed=0, eps=1e-3, tol=1e-4):
    """Gradient-check one registered loss at a seeded random point."""
    rng = np.random.default_rng(seed)
    prls = PrlsConfig()
    if name == "lsgan_adv":
        fake, _ = _score_pair(rng)
        return grad_check(lambda f: losses.lsgan_adv_loss(f), Tensor(fake), eps, tol)
    if name == "lsgan_d":
        real, fake = _score_pair(rng)
        return grad_check(
            lambda r: losses.lsgan_d_loss(r, Tensor(fake)), Tensor(real), eps, tol
        )
    if name == "spectral_convergence":
        x = rng.normal(0.0, 0.5, 96)
        x_hat = x + rng.normal(0.0, 0.2, 96)
        cfg = _SMALL_STFT.configs[0]
        return grad_check(
            lambda xh: losses.spectral_convergence(Tensor(x), xh, cfg), Tensor(x_hat), eps, tol
        )
    if name == "log_stft_magnitude":
        # large amplitude keeps spectral bins away from zero, where the
        # log-magnitude curvature would swamp the finite difference
        x = rng.normal(0.0, 4.0, 96)
        x_hat = 2.5 * x
        cfg = _SMALL_STFT.configs[0]
        return grad_check(
            lambda xh: losses.log_stft_magnitude(Tensor(x), xh, cfg), Tensor(x_hat), eps, tol
        )
    if name == "multi_resolution_stft":
        x = rng.normal(0.0, 4.0, 160)
        x_hat = 2.5 * x
        return grad_check(
            lambda xh: losses.multi_resolution_stft(Tensor(x), xh, _SMALL_STFT),
            Tensor(x_hat),
            eps,
            tol,
        )
    if name == "pointwise_relativistic_d":
        real, fake = _score_pair(rng)
        return grad_check(
            lambda r: tt.mean(losses.pointwise_relativistic_d(r, Tensor(fake), 1.0)),
            Tensor(real),
            eps,
            tol,
        )
    if name == "pointwise_relativistic_g":
        real, fake = _score_pair(rng)
        return grad_check(
            lambda f: tt.mean(losses.pointwise_relativistic_g(f, Tensor(real), 1.0)),
            Tensor(fake),
            eps,
            tol,
        )
    if name == "topk_mean":
        scores = _jittered_scores(rng, (2, 20))
        return grad_check(lambda s: losses.topk_mean(s, 0.25), Tensor(scores), eps, tol)
    if name == "prls_d_total":
        real, fake = _score_pair(rng)
        return grad_check(
            lambda r: losses.prls_d_total(r, Tensor(fake), prls), Tensor(real), eps, tol
        )
    if name == "prls_adv_total":
        real, fake = _score_pair(rng)
        return grad_check(
            lambda f: losses.prls_adv_total(f, Tensor(real), prls), Tensor(fake), eps, tol
        )
    if name in ("prls_d_multiscale", "prls_adv_multiscale"):
        # two scales of different lengths; gradients are checked on the first
        real, fake = _score_pair(rng, (2, 16))
        real2, fake2 = (Tensor(a) for a in _score_pair(rng, (2, 4)))
        if name == "prls_d_multiscale":
            return grad_check(
                lambda r: losses.prls_d_total([r, real2], [Tensor(fake), fake2], prls),
                Tensor(real),
                eps,
                tol,
            )
        return grad_check(
            lambda f: losses.prls_adv_total([f, fake2], [Tensor(real), real2], prls),
            Tensor(fake),
            eps,
            tol,
        )
    raise KeyError(f"unknown loss check {name!r}")


LOSS_CHECKS = (
    "lsgan_adv",
    "lsgan_d",
    "spectral_convergence",
    "log_stft_magnitude",
    "multi_resolution_stft",
    "pointwise_relativistic_d",
    "pointwise_relativistic_g",
    "topk_mean",
    "prls_d_total",
    "prls_adv_total",
    "prls_d_multiscale",
    "prls_adv_multiscale",
)


def _tiny_melgan_spec():
    return models.MelganGeneratorSpec(n_mels=4, base_channels=8, strides=(4, 4, 16))


def _tiny_pwgan_spec():
    return models.PwganGeneratorSpec(n_mels=4, layers=3, residual_channels=4)


def _tiny_d_spec(kind="pwgan_single"):
    return models.DiscriminatorSpec(
        kind=kind, channels=4, kernel_first=7, kernel_mid=5, down_strides=(2, 2), n_scales=2
    )


def check_model(name, seed=0, eps=1e-3, tol=1e-4, coords=40):
    """Gradient-check mean model output w.r.t. one weight tensor."""
    rng = np.random.default_rng(seed)
    if name == "melgan_generator":
        spec = _tiny_melgan_spec()
        params = models.init_params(spec, seed, np.float64)
        mel = Tensor(rng.normal(0.0, 1.0, (1, spec.n_mels, 2)))
        target = "block1.res0.c1.w"

        def f(w):
            out = models.melgan_generate(mel, spec, params.replaced(target, w))
            return tt.mean(out)

        return grad_check(f, params[target], eps, tol, coords=coords, rng=rng)
    if name == "pwgan_generator":
        spec = _tiny_pwgan_spec()
        params = models.init_params(spec, seed, np.float64)
        mel = Tensor(rng.normal(0.0, 1.0, (1, spec.n_mels, 2)))
        noise = Tensor(rng.normal(0.0, 1.0, (1, 1, 2 * spec.hop)))
        target = "layer1.dil.w"

        def f(w):
            out = models.pwgan_generate(noise, mel, spec, params.replaced(target, w))
            return tt.mean(out)

        return grad_check(f, params[target], eps, tol, coords=coords, rng=rng)
    if name in ("discriminator_single", "discriminator_multiscale"):
        kind = "pwgan_single" if name.endswith("single") else "melgan_multiscale"
        spec = _tiny_d_spec(kind)
        params = models.init_params(spec, seed, np.float64)
        wav = Tensor(rng.normal(0.0, 0.3, (1, 1, 256)))

        def f(x):
            maps = models.discriminate(x, spec, params)
            total = tt.mean(maps[0])
            for m in maps[1:]:
                total = total + tt.mean(m)
            return total

        return grad_check(f, wav, eps, tol, coords=coords, rng=rng)
    raise KeyError(f"unknown model check {name!r}")


MODEL_CHECKS = (
    "melgan_generator",
    "pwgan_generator",
    "discriminator_single",
    "discriminator_multiscale",
)


def run_suite(which="all", seed=0):
    """Run checks; returns {name: GradCheckReport}."""
    names = []
    if which == "all":
        names = list(LOSS_CHECKS) + list(MODEL_CHECKS)
    elif which in LOSS_CHECKS or which in MODEL_CHECKS:
        names = [which]
    else:
        raise KeyError(f"unknown check {which!r}; options: all, {', '.join(LOSS_CHECKS + MODEL_CHECKS)}")
    reports = {}
    for name in names:
        if name in LOSS_CHECKS:
            reports[name] = check_loss(name, seed=seed)
        else:
            reports[name] = check_model(name, seed=seed)
    return reports
