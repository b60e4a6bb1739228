"""Desk-scale vocoder generators and fully convolutional discriminators.

Models are functional: a spec describes the architecture, a ParameterSet
holds named weight tensors, and forward functions thread both through the
tensor ops so one tape per training step captures everything. A Vocoder
bundles a generator with its conditioning features for training,
held-out evaluation and synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import SAMPLE_RATE
from .dsp import StftConfig, mel_filterbank
from .tensor import ShapeError, Tensor

# feature analysis for generator conditioning: 1024-point FFT, hop 256
CONDITIONING = StftConfig(fft_size=1024, win_length=1024, hop=256)


class ParameterSet:
    """Named parameter tensors with gradient-required flags."""

    def __init__(self):
        self._params = {}

    def add(self, name, array, requires_grad=True):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = Tensor(np.ascontiguousarray(array), requires_grad=requires_grad)

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def attach(self, tape):
        for t in self._params.values():
            t.tape = tape

    def detach(self):
        for t in self._params.values():
            t.tape = None

    def set_requires_grad(self, flag):
        for t in self._params.values():
            t.requires_grad = flag

    def set_data(self, name, array):
        old = self._params[name]
        if old.shape != array.shape:
            raise ShapeError(f"{name}: shape {array.shape} != {old.shape}")
        if old.dtype != array.dtype:
            raise TypeError(f"{name}: dtype {array.dtype} != {old.dtype}")
        self._params[name] = Tensor(array, requires_grad=old.requires_grad)

    def state(self):
        return {name: t.data.copy() for name, t in self._params.items()}

    def load(self, state):
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ValueError(f"parameter name mismatch: missing {missing}, extra {extra}")
        for name, arr in state.items():
            self.set_data(name, np.asarray(arr, dtype=self._params[name].dtype))

    def replaced(self, name, t):
        """Shallow copy with one tensor substituted (used by gradient checks)."""
        if name not in self._params:
            raise KeyError(name)
        clone = ParameterSet()
        clone._params = dict(self._params)
        clone._params[name] = t
        return clone


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class MelganGeneratorSpec:
    kind: str = "melgan"
    n_mels: int = 80
    base_channels: int = 64
    strides: tuple = (8, 8, 4)
    dilations: tuple = (1, 3, 9, 27)
    io_kernel: int = 7
    res_kernel: int = 3
    lrelu_slope: float = 0.2
    hop: int = 256

    def __post_init__(self):
        if math.prod(self.strides) != self.hop:
            raise ValueError(
                f"product of strides {self.strides} must equal the mel hop {self.hop}"
            )
        if any(s < 1 for s in self.strides):
            raise ValueError("strides must be >= 1")

    def block_channels(self):
        # base width halves per upsampling block
        return [self.base_channels // 2 ** (i + 1) for i in range(len(self.strides))]


@dataclass(frozen=True)
class PwganGeneratorSpec:
    kind: str = "pwgan"
    n_mels: int = 80
    layers: int = 8
    residual_channels: int = 16
    kernel: int = 3
    dilation_base: int = 2
    lrelu_slope: float = 0.2
    hop: int = 256


GENERATOR_SPECS = {"melgan": MelganGeneratorSpec, "pwgan": PwganGeneratorSpec}


@dataclass(frozen=True)
class DiscriminatorSpec:
    kind: str = "pwgan_single"  # or "melgan_multiscale"
    channels: int = 32
    kernel_first: int = 15
    kernel_mid: int = 5
    kernel_last: int = 3
    down_strides: tuple = (4, 2, 2)
    lrelu_slope: float = 0.2
    n_scales: int = 3
    pool: int = 4

    def __post_init__(self):
        if self.kind not in ("pwgan_single", "melgan_multiscale"):
            raise ValueError(f"unknown discriminator kind {self.kind!r}")

    @property
    def score_stride(self):
        """Input samples per score position within one scale."""
        return math.prod(self.down_strides)

    def layer_shapes(self):
        """(c_out, c_in, kernel, stride, dilation) per conv layer of one scale."""
        ch = self.channels
        layers = [(ch, 1, self.kernel_first, 1, 1)]
        for s in self.down_strides:
            layers.append((ch, ch, self.kernel_mid, s, 1))
        layers.append((ch, ch, self.kernel_mid, 1, 1))
        layers.append((1, ch, self.kernel_last, 1, 1))
        return layers

    def receptive_field(self):
        rf = 1
        for _, _, k, s, d in reversed(self.layer_shapes()):
            rf = (rf - 1) * s + (k - 1) * d + 1
        return rf


# ---------------------------------------------------------------------------
# parameter initialization


def _add_conv(ps, rng, name, c_out, c_in, k, dtype):
    std = 1.0 / math.sqrt(c_in * k)
    ps.add(name + ".w", (rng.standard_normal((c_out, c_in, k)) * std).astype(dtype))
    ps.add(name + ".b", np.zeros(c_out, dtype=dtype))


def init_params(spec, seed, dtype=np.float32):
    """Deterministic parameter construction: Normal(0, 1/fan_in) weights, zero biases."""
    rng = np.random.default_rng(seed)
    ps = ParameterSet()
    if isinstance(spec, MelganGeneratorSpec):
        ch = spec.base_channels
        _add_conv(ps, rng, "in", ch, spec.n_mels, spec.io_kernel, dtype)
        for bi, (stride, ch_out) in enumerate(zip(spec.strides, spec.block_channels())):
            _add_conv(ps, rng, f"block{bi}.up", ch_out, ch, 2 * stride, dtype)
            for ri, _ in enumerate(spec.dilations):
                _add_conv(ps, rng, f"block{bi}.res{ri}.c1", ch_out, ch_out, spec.res_kernel, dtype)
                _add_conv(ps, rng, f"block{bi}.res{ri}.c2", ch_out, ch_out, 1, dtype)
            ch = ch_out
        _add_conv(ps, rng, "out", 1, ch, spec.io_kernel, dtype)
    elif isinstance(spec, PwganGeneratorSpec):
        ch = spec.residual_channels
        _add_conv(ps, rng, "in", ch, 1, 1, dtype)
        _add_conv(ps, rng, "cond", ch, spec.n_mels, 1, dtype)
        for li in range(spec.layers):
            _add_conv(ps, rng, f"layer{li}.dil", ch, ch, spec.kernel, dtype)
            _add_conv(ps, rng, f"layer{li}.res", ch, ch, 1, dtype)
            _add_conv(ps, rng, f"layer{li}.skip", ch, ch, 1, dtype)
        _add_conv(ps, rng, "post1", ch, ch, 1, dtype)
        _add_conv(ps, rng, "post2", 1, ch, 1, dtype)
    elif isinstance(spec, DiscriminatorSpec):
        n_scales = spec.n_scales if spec.kind == "melgan_multiscale" else 1
        for si in range(n_scales):
            for li, (c_out, c_in, k, _, _) in enumerate(spec.layer_shapes()):
                _add_conv(ps, rng, f"scale{si}.layer{li}", c_out, c_in, k, dtype)
    else:
        raise TypeError(f"unknown spec type {type(spec).__name__}")
    return ps


# ---------------------------------------------------------------------------
# forward passes


def _conv(x, params, name, stride=1, padding=0, dilation=1):
    return tt.conv1d(
        x, params[name + ".w"], params[name + ".b"], stride=stride, padding=padding, dilation=dilation
    )


def melgan_generate(mel, spec: MelganGeneratorSpec, params):
    """Mel [B, n_mels, F] -> waveform [B, 1, F * hop], values in (-1, 1)."""
    if mel.ndim != 3 or mel.shape[1] != spec.n_mels:
        raise ShapeError(f"melgan_generate: expected [B, {spec.n_mels}, F] mel, got {mel.shape}")
    pad = spec.io_kernel // 2
    h = _conv(mel, params, "in", padding=pad)
    for bi, stride in enumerate(spec.strides):
        h = tt.leaky_relu(h, spec.lrelu_slope)
        h = tt.conv_transpose1d(
            h,
            params[f"block{bi}.up.w"],
            params[f"block{bi}.up.b"],
            stride=stride,
            padding=stride // 2,
        )
        for ri, d in enumerate(spec.dilations):
            y = tt.leaky_relu(h, spec.lrelu_slope)
            y = _conv(y, params, f"block{bi}.res{ri}.c1", padding=d * (spec.res_kernel // 2), dilation=d)
            y = tt.leaky_relu(y, spec.lrelu_slope)
            y = _conv(y, params, f"block{bi}.res{ri}.c2")
            h = h + y
    h = tt.leaky_relu(h, spec.lrelu_slope)
    return tt.tanh(_conv(h, params, "out", padding=pad))


def pwgan_generate(noise, mel, spec: PwganGeneratorSpec, params):
    """Noise [B, 1, T] + mel [B, n_mels, F] with T = F * hop -> waveform [B, 1, T]."""
    if noise.ndim != 3 or mel.ndim != 3:
        raise ShapeError("pwgan_generate: expected 3-D noise and mel")
    T, F = noise.shape[-1], mel.shape[-1]
    if T != F * spec.hop:
        raise ShapeError(
            f"pwgan_generate: noise length {T} must equal mel frames {F} * hop {spec.hop}"
        )
    # a 1x1 conv commutes with the repeat, so it runs at the frame rate
    cond = tt.repeat_interleave(_conv(mel, params, "cond"), spec.hop)
    h = _conv(noise, params, "in")
    skip = None
    half = spec.kernel // 2
    for li in range(spec.layers):
        d = spec.dilation_base**li
        y = tt.leaky_relu(
            _conv(h, params, f"layer{li}.dil", padding=d * half, dilation=d) + cond,
            spec.lrelu_slope,
        )
        h = h + _conv(y, params, f"layer{li}.res")
        s = _conv(y, params, f"layer{li}.skip")
        skip = s if skip is None else skip + s
    out = tt.leaky_relu(_conv(tt.leaky_relu(skip, spec.lrelu_slope), params, "post1"), spec.lrelu_slope)
    return tt.tanh(_conv(out, params, "post2"))


def _discriminate_scale(wav, spec: DiscriminatorSpec, params, si):
    h = wav
    layers = spec.layer_shapes()
    for li, (_, _, k, s, d) in enumerate(layers):
        if li:
            h = tt.leaky_relu(h, spec.lrelu_slope)
        h = tt.conv1d(
            h,
            params[f"scale{si}.layer{li}.w"],
            params[f"scale{si}.layer{li}.b"],
            stride=s,
            padding=(k - 1) * d // 2,
            dilation=d,
        )
    return tt.reshape(h, (h.shape[0], h.shape[2]))  # [B, T']


def discriminate(wav, spec: DiscriminatorSpec, params):
    """Waveform [B, 1, T] -> list of per-position [B, T'] score maps.

    pwgan_single returns a list of one map; melgan_multiscale returns
    n_scales maps, each computed on a 4x average-pooled copy of its
    predecessor's input.
    """
    if wav.ndim != 3 or wav.shape[1] != 1:
        raise ShapeError(f"discriminate: expected [B, 1, T] waveform, got {wav.shape}")
    if wav.shape[-1] < spec.receptive_field():
        raise ShapeError(
            f"discriminate: input length {wav.shape[-1]} below receptive field "
            f"{spec.receptive_field()}"
        )
    n_scales = spec.n_scales if spec.kind == "melgan_multiscale" else 1
    maps = []
    h = wav
    for si in range(n_scales):
        if si:
            h = tt.avg_pool1d(h, spec.pool)
        maps.append(_discriminate_scale(h, spec, params, si))
    return maps


# ---------------------------------------------------------------------------
# a generator with its conditioning features


class Vocoder:
    """Generator spec, its weights and the conditioning mel filterbank."""

    def __init__(self, kind, n_mels, mel_fmin, mel_fmax, seed=0, dtype=np.float32):
        self.kind = kind
        self.spec = GENERATOR_SPECS[kind](n_mels=n_mels)
        self.params = init_params(self.spec, seed, dtype)
        self.fb = mel_filterbank(n_mels, SAMPLE_RATE, mel_fmin, mel_fmax, CONDITIONING.fft_size)

    def noise(self, rng, mel):
        """Noise input for mel [B, n_mels, F]: None for MelGAN, [B, 1, F * hop] for PWGAN."""
        if self.kind == "melgan":
            return None
        return tt.randn(rng, (mel.shape[0], 1, mel.shape[-1] * self.spec.hop), mel.dtype)

    def generate(self, mel, noise):
        """Mel [B, n_mels, F] (and noise) -> waveform [B, 1, F * hop]."""
        if self.kind == "melgan":
            return melgan_generate(mel, self.spec, self.params)
        return pwgan_generate(noise, mel, self.spec, self.params)
